// Command quality regenerates the committed quality gate: it replays the
// fixed select workload of internal/quality through an in-process worker
// and writes every answer to the file named by its one argument
// (`make quality` writes QUALITY.json at the repository root).
package main

import (
	"bytes"
	"fmt"
	"os"

	"comparesets/internal/quality"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: quality <output file>")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(path string) error {
	answers, err := quality.Run()
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := quality.Write(&b, answers); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
