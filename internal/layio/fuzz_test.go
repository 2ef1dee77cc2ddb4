package layio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLayoutLoad holds Read to its contract on arbitrary input against a
// fixed netlist and architecture: it never panics, and whatever it accepts
// is canonical after one write — reading the written bytes back succeeds and
// writing again reproduces them byte for byte. Bytes are compared, not
// exper.LayoutHash: Read does not restore every in-memory route field the
// hash covers.
func FuzzLayoutLoad(f *testing.F) {
	a, nl, o := routedState(f)
	var buf bytes.Buffer
	if err := Write(&buf, o.P, o.Rts); err != nil {
		f.Fatal(err)
	}
	text := buf.String()
	f.Add([]byte(text))
	lines := strings.SplitAfter(text, "\n")
	f.Add([]byte(lines[0]))
	f.Add([]byte(strings.Join(lines[:len(lines)/2], "")))
	f.Add([]byte("# comment\n\n" + strings.ReplaceAll(text, " ", "  ")))
	f.Add([]byte(strings.Replace(text, " global", " unrouted", 3)))
	f.Add([]byte(strings.Replace(text, " chan ", " chan 0 0 1 open chan ", 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, routes, err := Read(bytes.NewReader(data), a, nl)
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := Write(&once, p, routes); err != nil {
			t.Fatalf("write of an accepted layout: %v", err)
		}
		p2, routes2, err := Read(bytes.NewReader(once.Bytes()), a, nl)
		if err != nil {
			t.Fatalf("re-read of an accepted layout: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := Write(&twice, p2, routes2); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("write(read(w)) != w for w =\n%s", once.Bytes())
		}
	})
}
