package transport_test

import (
	"bufio"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	_ "github.com/octopus-dht/octopus/internal/chord"
	_ "github.com/octopus-dht/octopus/internal/core"
	_ "github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
)

// docRow is one row of a docs/PROTOCOL.md registry table; size is -1 for
// "variable".
type docRow struct {
	name string
	size int
	line int
}

// registryHeader matches the header of a registry table: code, message,
// payload, and a size column ("size", "fixed size", "empty size").
var registryHeader = regexp.MustCompile(`^\| code \| message \| payload \| [a-z ]*size \|$`)

// readRegistryRows parses every registry-table row of PROTOCOL.md, keyed by
// wire code.
func readRegistryRows(t *testing.T, path string) map[uint16]docRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[uint16]docRow{}
	inTable := false
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if registryHeader.MatchString(line) {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Errorf("PROTOCOL.md:%d: registry row has %d cells, want 4", n, len(cells))
			continue
		}
		cell := func(i int) string { return strings.Trim(strings.TrimSpace(cells[i]), "`") }
		code, err := strconv.ParseUint(strings.TrimPrefix(cell(0), "0x"), 16, 16)
		if err != nil {
			t.Errorf("PROTOCOL.md:%d: bad code %q", n, cell(0))
			continue
		}
		row := docRow{name: cell(1), size: -1, line: n}
		if s := cell(3); s != "variable" {
			if row.size, err = strconv.Atoi(s); err != nil {
				t.Errorf("PROTOCOL.md:%d: size %q is neither an integer nor \"variable\"", n, s)
				continue
			}
		}
		if prev, dup := rows[uint16(code)]; dup {
			t.Errorf("PROTOCOL.md:%d: 0x%04X already has a row at line %d", n, code, prev.line)
		}
		rows[uint16(code)] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestProtocolDocMatchesRegistry binds docs/PROTOCOL.md's registry tables
// to the live wire registry: every protocol code (0x0100–0x7EFF; 0x7Fxx is
// test-reserved) has exactly one row and every row a registration, the
// row names the registered Go type, and every integer size is that type's
// zero-value Size() and encoded length.
func TestProtocolDocMatchesRegistry(t *testing.T) {
	rows := readRegistryRows(t, "../../docs/PROTOCOL.md")
	reg := transport.Registry()
	for code, zero := range reg {
		if code < 0x0100 || code > 0x7EFF {
			continue
		}
		row, ok := rows[code]
		if !ok {
			t.Errorf("0x%04X is registered but has no PROTOCOL.md registry row", code)
			continue
		}
		if typ := reflect.TypeOf(zero); typ.Name() != row.name {
			t.Errorf("PROTOCOL.md:%d names 0x%04X %q, but the registry holds %s", row.line, code, row.name, typ)
			continue
		}
		if row.size < 0 {
			continue
		}
		if got := zero.Size(); got != row.size {
			t.Errorf("%s{}.Size() = %d, PROTOCOL.md:%d says %d", row.name, got, row.line, row.size)
		}
		enc, err := transport.Encode(zero)
		if err != nil {
			t.Errorf("%s{}: %v", row.name, err)
		} else if len(enc) != row.size {
			t.Errorf("len(Encode(%s{})) = %d, PROTOCOL.md:%d says %d", row.name, len(enc), row.line, row.size)
		}
	}
	for code, row := range rows {
		if _, ok := reg[code]; !ok {
			t.Errorf("PROTOCOL.md:%d documents 0x%04X %s, which nothing registers", row.line, code, row.name)
		}
	}
}
