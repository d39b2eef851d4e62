package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxPreallocBody bounds the buffer readBody sizes from a declared
// Content-Length before any byte of the body has arrived, so a client
// that sends headers and stalls pins at most this much; a longer body
// grows the buffer as its bytes arrive.
const maxPreallocBody = 64 << 10

// bodyReadTimeout bounds the wait for each read of a request body: a
// client that stalls its body longer than this between two reads is
// answered deadline_exceeded instead of holding its handler.
var bodyReadTimeout = 30 * time.Second

// bodyTotalTimeout bounds the whole body, from readBody's first read: a
// client that trickles its body, each piece within bodyReadTimeout, is
// answered deadline_exceeded once it has passed instead of holding its
// handler for as long as it keeps trickling.
var bodyTotalTimeout = 10 * time.Minute

// readBody reads a request body whole: into one buffer of the declared
// Content-Length, when that is at most maxPreallocBody, where io.ReadAll
// would start at 512 bytes and grow, copying what it has read, until
// the body fits. The MinRead spare bytes let the read that meets the
// end of the body land without growing the buffer. Before each read it
// sets the connection's read deadline bodyReadTimeout ahead, but never
// past bodyTotalTimeout after the first read, unless w reaches no
// connection; a read past it fails with an error that errors.Is
// os.ErrDeadlineExceeded. At the end of the body it clears
// the deadline: the server then reads the connection in the background,
// and a deadline passing there would cancel the request's context while
// the handler still runs.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rc := http.NewResponseController(w)
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxPreallocBody)) + bytes.MinRead)
	end := time.Now().Add(bodyTotalTimeout)
	for renew := true; ; {
		if renew {
			deadline := time.Now().Add(bodyReadTimeout)
			if deadline.After(end) {
				deadline = end
			}
			err := rc.SetReadDeadline(deadline)
			if err != nil && !errors.Is(err, http.ErrNotSupported) {
				return nil, err
			}
			renew = err == nil
		}
		buf.Grow(bytes.MinRead)
		free := buf.AvailableBuffer()
		n, err := r.Body.Read(free[:cap(free)])
		buf.Write(free[:n])
		if err == io.EOF {
			if renew {
				if err := rc.SetReadDeadline(time.Time{}); err != nil {
					return nil, err
				}
			}
			return buf.Bytes(), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeIngest decodes a POST /v1/datasets body into its path, source
// and content, the ingest's data. A body in the shape encoders write
// (fastIngest) is decoded by hand, and data then aliases body; any
// other is left to encoding/json, whose answer is the contract: keys
// folded by case or escaped, the last of duplicate keys, invalid
// UTF-8, null, unknown keys and data after the object.
func decodeIngest(body []byte) (path, source string, data []byte, err error) {
	if path, source, data, ok := fastIngest(body); ok {
		return path, source, data, nil
	}
	var req ingestRequest
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Path, req.Source, []byte(req.Content), err
}

// fastIngest decodes body by hand when it is one object whose keys are
// among "path", "source" and "content", each at most once, in exact
// case and unescaped, whose values are strings of valid UTF-8, and
// after which comes only whitespace. The whole body is checked before
// any byte of it is rewritten: content is then unescaped in place, and
// data is that stretch of body. On any other body ok is false and body
// is as it was.
func fastIngest(body []byte) (path, source string, data []byte, ok bool) {
	var vals [3][]byte // path, source, content: raw, still escaped
	var escaped [3]bool
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return "", "", nil, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			key, esc, next := scanString(body, i)
			if next < 0 || esc {
				return "", "", nil, false
			}
			k := -1
			switch {
			case string(key) == "path":
				k = 0
			case string(key) == "source":
				k = 1
			case string(key) == "content":
				k = 2
			}
			if k < 0 || vals[k] != nil {
				return "", "", nil, false
			}
			if i = skipSpace(body, next); i == len(body) || body[i] != ':' {
				return "", "", nil, false
			}
			val, esc, next := scanString(body, skipSpace(body, i+1))
			if next < 0 {
				return "", "", nil, false
			}
			vals[k], escaped[k] = val, esc
			if i = skipSpace(body, next); i == len(body) {
				return "", "", nil, false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return "", "", nil, false
			}
			i = skipSpace(body, i+1)
		}
	}
	if skipSpace(body, i) != len(body) {
		return "", "", nil, false
	}
	for k, v := range vals {
		if escaped[k] {
			vals[k] = unescapeInPlace(v)
		}
	}
	data = vals[2]
	if data == nil {
		data = []byte{}
	}
	return string(vals[0]), string(vals[1]), data, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanString reads the JSON string that opens at b[i] and returns its
// raw contents, whether it holds an escape, and the index just past its
// closing quote. next is -1 when b[i] opens no string, or when the
// string holds a malformed escape, a raw control byte or invalid UTF-8.
func scanString(b []byte, i int) (s []byte, escaped bool, next int) {
	if i >= len(b) || b[i] != '"' {
		return nil, false, -1
	}
	start := i + 1
	for j := start; j < len(b); {
		j = plainRun(b, j)
		if j == len(b) {
			break
		}
		switch c := b[j]; {
		case c == '"':
			return b[start:j], escaped, j + 1
		case c == '\\':
			switch {
			case getu4(b[j:]) >= 0:
				j += 6
			case j+1 < len(b) && unescapeByte(b[j+1]) != 0:
				j += 2
			default:
				return nil, false, -1
			}
			escaped = true
		case c < 0x20:
			return nil, false, -1
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				return nil, false, -1
			}
			j += size
		}
	}
	return nil, false, -1
}

// plainRun skips the bytes from b[i] on, eight at a time, while none
// of the eight is a quote, a backslash, a control byte or non-ASCII,
// and returns where it stopped: at the end of b, or at the start of a
// stretch of eight, or fewer, that holds such a byte. Each test is the
// word-wide "has a byte less than n" of Hacker's Delight (Warren, 6-1),
// exact for n up to 0x80: a borrow can only reach bytes past one that
// holds. The quote and the backslash are the zero bytes of x XORed
// with eight copies of them.
func plainRun(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		q, s := x^(ones*'"'), x^(ones*'\\')
		if ((x-ones*0x20)&^x|(q-ones)&^q|(s-ones)&^s|x)&highs != 0 {
			break
		}
	}
	return i
}

// unescapeByte is the byte the escape \c stands for, or 0 for \u and
// for what JSON does not allow.
func unescapeByte(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// getu4 decodes the \uXXXX escape at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			c = (c | 0x20) - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescapeInPlace decodes the escapes of a string scanString accepted,
// moving the bytes between them down, and returns the shortened slice.
// A \u escape decodes as encoding/json decodes it: a surrogate pair to
// its rune, and any other surrogate to U+FFFD. Each escape shrinks, six
// bytes to at most three and a pair's twelve to four, so the write
// never overtakes the read.
func unescapeInPlace(b []byte) []byte {
	w, r := 0, 0
	for {
		j := bytes.IndexByte(b[r:], '\\')
		if j < 0 {
			w += copy(b[w:], b[r:])
			return b[:w]
		}
		w += copy(b[w:], b[r:r+j])
		r += j
		rr := getu4(b[r:])
		if rr < 0 {
			b[w] = unescapeByte(b[r+1])
			w++
			r += 2
			continue
		}
		r += 6
		if utf16.IsSurrogate(rr) {
			rr = utf16.DecodeRune(rr, getu4(b[r:]))
			if rr != unicode.ReplacementChar {
				r += 6
			}
		}
		w += utf8.EncodeRune(b[w:], rr)
	}
}
