package docstore

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// widthBody is a JSON Lines body of about 600 KB, cut into four chunks
// at width 4: most of its bytes are runs of blank lines (some of them
// CRLF or spaces), so cuts land on blank lines, and one document holds
// a string longer than a chunk. Every seventh document has no "_id",
// the rest share twelve IDs, so the form assigns IDs and keeps the last
// of each. bad, when set, replaces documents 1201 and 2701, in the
// second and the fourth chunk, by bad lines.
func widthBody(bad [2]string) (body []byte, lines []string) {
	var sb strings.Builder
	blank := []string{"\n", "  \n", "\r\n", "\t \r\n"}
	for i := 0; i < 3000; i++ {
		line := fmt.Sprintf(`{"_id":"id%d","v":%d,"tag":{"n":%d}}`, i%12, i, i%5)
		switch {
		case i%7 == 0:
			line = fmt.Sprintf(`{"v":%d,"at":[%d,null]}`, i, i)
		case i == 1500:
			line = `{"_id":"long","s":"` + strings.Repeat("x", 200<<10) + `"}`
		case i == 1200 && bad[0] != "":
			line = bad[0]
		case i == 2700 && bad[1] != "":
			line = bad[1]
		}
		lines = append(lines, line)
		sb.WriteString(line)
		sb.WriteString("\n")
		for j := 0; j < 1+i%3; j++ {
			sb.WriteString(strings.Repeat(blank[(i+j)%len(blank)], 20))
		}
	}
	return []byte(sb.String()), lines
}

// atWidth runs Decode on body with GOMAXPROCS at procs, and returns
// the documents the form holds in ID order, or the error.
func atWidth(t *testing.T, procs int, body []byte) ([]Doc, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	c, err := Decode("w", body, true)
	if err != nil {
		return nil, err.Error()
	}
	return find(c), ""
}

// Decode gives the same documents in the same order, the same IDs and
// the same error whether it decodes a JSON Lines body on one worker or
// on four.
func TestDecodeSameAtAnyWidth(t *testing.T) {
	body, lines := widthBody([2]string{})
	size := (len(body) + 3) / 4
	chunks := lineChunks(body, 4)
	if len(chunks) < 2 || !bytes.Equal(bytes.Join(chunks, nil), body) {
		t.Fatalf("%d chunks that join to the body: %v", len(chunks), bytes.Equal(bytes.Join(chunks, nil), body))
	}
	onBlank := 0
	for i, ch := range chunks {
		if i < len(chunks)-1 && ch[len(ch)-1] != '\n' {
			t.Fatalf("chunk %d ends mid-line", i)
		}
		first, _, _ := bytes.Cut(ch, []byte("\n"))
		if i > 0 && len(bytes.TrimSpace(first)) == 0 {
			onBlank++
		}
	}
	if onBlank == 0 || len(lines[1500]) <= size {
		t.Fatalf("the body does not cover its cases: %d cuts on blank lines, a %d-byte line beside %d-byte chunks", onBlank, len(lines[1500]), size)
	}

	one, err1 := atWidth(t, 1, body)
	four, err4 := atWidth(t, 4, body)
	if err1 != "" || err4 != "" {
		t.Fatalf("Decode: %q at width 1, %q at width 4", err1, err4)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("width 1 and width 4 hold different documents")
	}
	ids := map[string]bool{}
	for _, d := range one {
		ids[d.ID()] = true
	}
	// 12 shared IDs, the long document's and one per document without
	// an "_id" (3000/7 rounded up), numbered in input order.
	if len(one) != 12+1+429 || !ids["w-1"] || !ids["w-429"] || ids["w-430"] {
		t.Fatalf("%d documents, want 442 with w-1 to w-429", len(one))
	}
	for _, d := range one {
		if d.ID() == "id3" && d["v"] != 2991.0 {
			t.Errorf("id3 holds v %v, want the last document's 2991", d["v"])
		}
	}

	for _, bad := range [][2]string{
		{`{"_id":"x",`, `[1,2]`},
		{`"text"`, `{"broken`},
		{`null`, `7`},
	} {
		body, _ := widthBody(bad)
		in := func(line string) int {
			for i, ch := range lineChunks(body, 4) {
				if bytes.Contains(ch, []byte("\n"+line+"\n")) {
					return i
				}
			}
			return -1
		}
		if in(bad[0]) != 1 || in(bad[1]) != 3 {
			t.Fatalf("bad lines %q in chunks %d and %d, want 1 and 3", bad, in(bad[0]), in(bad[1]))
		}
		_, err1 := atWidth(t, 1, body)
		_, err4 := atWidth(t, 4, body)
		if err1 == "" || err1 != err4 {
			t.Errorf("bad lines %q: error %q at width 1, %q at width 4", bad, err1, err4)
		}
		// The first bad line is document 1201 in input order.
		if strings.HasPrefix(bad[0], `{`) == strings.Contains(err1, "document 1201 is not a JSON object") {
			t.Errorf("bad lines %q: error %q, want the first bad line's", bad, err1)
		}
	}
}
