// Package textio reads and writes the repository's interchange format for
// set collections: one set per line, elements as space-separated decimal
// ids. cmd/ssrgen writes it; cmd/ssrindex and cmd/ssrserver read it with
// LoadCollection.
package textio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	ssr "repro"
	"repro/internal/set"
)

// WriteSets emits one set per line: space-separated decimal element ids.
// An empty set serializes as a blank line, which ReadSets skips — the
// format cannot represent empty sets.
func WriteSets(w io.Writer, sets []set.Set) error {
	bw := bufio.NewWriter(w)
	for _, s := range sets {
		for i, e := range s.Elems() {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(e), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSets parses the WriteSets format. Blank lines are skipped; name is
// used in error messages. At least one set is required.
func ReadSets(r io.Reader, name string) ([]set.Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var sets []set.Set
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		elems := make([]set.Elem, 0, len(fields))
		for _, fd := range fields {
			v, err := strconv.ParseUint(fd, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad element %q: %w", name, line, fd, err)
			}
			elems = append(elems, set.Elem(v))
		}
		sets = append(sets, set.New(elems...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", name)
	}
	return sets, nil
}

// LoadCollection reads the file at path into a public collection, one set
// per line in sid order.
func LoadCollection(path string) (*ssr.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only fd; ReadSets fails on any read error
	sets, err := ReadSets(f, path)
	if err != nil {
		return nil, err
	}
	coll := ssr.NewCollection()
	for _, s := range sets {
		if _, err := coll.AddIDs(s.Elems()...); err != nil {
			return nil, err
		}
	}
	return coll, nil
}
