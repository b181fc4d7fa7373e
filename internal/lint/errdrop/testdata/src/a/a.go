// Package a is the errdrop fixture.
package a

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func mayFail() error           { return nil }
func open() (*os.File, error)  { return nil, nil }
func twoResults() (int, error) { return 0, nil }
func noError() int             { return 0 }
func cleanup()                 {}
func value() (int, bool)       { return 0, true }

// Triggering forms.
func dropped(f *os.File) {
	mayFail()            // want "call to mayFail discards its error"
	defer f.Close()      // want "deferred call to f.Close discards its error"
	go mayFail()         // want "spawned call to mayFail discards its error"
	_ = mayFail()        // want "error value assigned to _"
	n, _ := twoResults() // want "error result of twoResults assigned to _"
	_ = n
	v, _ := strconv.Atoi("7") // want "error result of strconv.Atoi assigned to _"
	_ = v
}

// Non-triggering forms: handled errors, error-free calls, the fmt print
// family, never-failing writers, and justified drops.
func handled(f *os.File) error {
	if err := mayFail(); err != nil {
		return err
	}
	noError()
	cleanup()
	_, ok := value() // second result is bool, not error
	_ = ok
	fmt.Println("status")
	fmt.Fprintln(os.Stderr, "diagnostic")
	fmt.Fprintf(os.Stdout, "%d rows\n", 2)
	var b strings.Builder
	b.WriteString("x")
	fmt.Fprintf(&b, "%d", 1)
	var buf bytes.Buffer
	buf.WriteByte('x')
	//xbc:ignore errdrop read-only file, close cannot lose data
	f.Close()
	return nil
}
