package report

import (
	"io"
	"os"
)

// WithOutput runs emit against the named output: the caller's stdout when
// path is "" or "-", otherwise a created/truncated file. File close errors
// are reported — a full disk must not look like a successful run.
func WithOutput(stdout io.Writer, path string, emit func(io.Writer) error) error {
	if path == "" || path == "-" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
