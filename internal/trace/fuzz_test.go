package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes through the GZTR decoder. The decoder
// must never panic, never loop past the input (each record consumes at
// least three bytes), and must terminate every stream with exactly one of
// the defined outcomes: a clean io.EOF, ErrTruncated for a stream that
// ends mid-record, or ErrCorrupt for structurally invalid bytes. CI runs
// each fuzz target in this file as a short smoke on every push; the seed
// corpora cover the interesting boundaries so even the no-fuzzing
// `go test` run exercises them.
func FuzzReader(f *testing.F) {
	// Valid stream: header + three records.
	var valid bytes.Buffer
	if err := WriteAll(&valid, FormatGZTR, []Record{
		{PC: 0x400100, Addr: 0x10000040, NonMem: 3},
		{PC: 0x400104, Addr: 0x10000080, NonMem: 0, Kind: Store},
		{PC: 0x400100, Addr: 0xffffffffffffffff, NonMem: 65535},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])                                                                           // torn varint tail
	f.Add(valid.Bytes()[:len(magic)+1])                                                                            // one dangling head byte
	f.Add(magic[:])                                                                                                // header only: clean empty trace
	f.Add(magic[:3])                                                                                               // truncated header
	f.Add([]byte("NOPE\x01"))                                                                                      // bad magic
	f.Add([]byte{})                                                                                                // empty input
	f.Add(append(append([]byte{}, magic[:]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)) // overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("NewFileReader: untyped error %v", err)
			}
			return
		}
		// Each record consumes >= 3 bytes, so the loop is bounded by the
		// input length; exceeding it means the reader fabricated records.
		max := len(data)
		for n := 0; ; n++ {
			_, err := fr.Next()
			if err == nil {
				if n > max {
					t.Fatalf("decoded %d records from %d bytes", n, len(data))
				}
				continue
			}
			if err != io.EOF && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next: untyped error %v", err)
			}
			break
		}
	})
}

// FuzzDecodeColumnar feeds arbitrary bytes through the columnar slab
// decoder that MapColumnar also runs over every mapped .cols file. It
// must reject anything but an exact header-plus-planes layout with
// ErrCorrupt and never panic. An accepted buffer must decode to the same
// records on the zero-copy (8-aligned) and copying (misaligned) paths,
// and re-encode to exactly the input bytes.
func FuzzDecodeColumnar(f *testing.F) {
	valid := EncodeColumnar([]Record{
		{PC: 0x400100, Addr: 0x10000040, NonMem: 3},
		{PC: 0x400104, Addr: 0x10000080, Kind: Store},
		{PC: 0x400100, Addr: 0xffffffffffffffff, NonMem: 65535},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                   // torn Kind plane
	f.Add(valid[:colsHeaderSize])                 // header claims 3 records, no planes
	f.Add(EncodeColumnar(nil))                    // empty slab
	f.Add([]byte(colsMagic))                      // truncated header
	f.Add(append([]byte("GZCOLZ"), valid[6:]...)) // bad magic
	badVersion := append([]byte{}, valid...)
	badVersion[6] = 2
	f.Add(badVersion)
	huge := append([]byte{}, valid...)
	for i := 8; i < 16; i++ {
		huge[i] = 0xff // record count that overflows the size arithmetic
	}
	f.Add(huge)
	reserved := append([]byte{}, valid...)
	reserved[colsHeaderSize-1] = 1 // non-zero reserved header word
	f.Add(reserved)

	f.Fuzz(func(t *testing.T, data []byte) {
		aligned := append(make([]byte, 0, len(data)), data...)
		c, err := DecodeColumnar(aligned)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeColumnar: untyped error %v", err)
			}
			return
		}
		if int64(len(data)) != ColumnarSize(c.Len()) {
			t.Fatalf("accepted %d bytes as %d records", len(data), c.Len())
		}
		shifted := make([]byte, len(data)+1)
		copy(shifted[1:], data)
		cc, err := DecodeColumnar(shifted[1:])
		if err != nil {
			t.Fatalf("misaligned copy of an accepted buffer rejected: %v", err)
		}
		recs := make([]Record, c.Len())
		for i := range recs {
			recs[i] = c.At(i)
			if cc.At(i) != recs[i] {
				t.Fatalf("record %d: zero-copy %+v, copying path %+v", i, recs[i], cc.At(i))
			}
		}
		enc := EncodeColumnar(recs)
		if !bytes.Equal(enc, data) {
			t.Fatal("decoded records do not re-encode to the input")
		}
	})
}

// FuzzChampSimReader feeds arbitrary bytes through the ChampSim line
// decoder. Every stream must end in a clean io.EOF or an ErrCorrupt and
// never panic, and every record it does accept must survive a round trip
// through the canonical ChampSimWriter spelling. Binary input longer than
// the scanner's line limit is covered by the unit tests; as a seed it
// would slow every fuzzing round.
func FuzzChampSimReader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteAll(&valid, FormatChampSim, []Record{
		{PC: 0x400100, Addr: 0x10000040, NonMem: 3},
		{PC: 0x400104, Addr: 0x10000080, Kind: Store},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("# comment\n\n4194560 268435520\n")) // comment, blank line, decimal fields
	f.Add([]byte("0x400100\t0x10000040 STORE 7\r\n")) // whitespace separators, CRLF
	f.Add([]byte("0x400100,0x10000040,X,0\n"))        // bad kind
	f.Add([]byte("0x400100,0x10000040,L,65536\n"))    // nonmem out of range
	f.Add([]byte("0x400100\n"))                       // one field
	f.Add([]byte("1,2,L,3,4\n"))                      // five fields
	f.Add([]byte("0x1,0x2,L,0"))                      // no trailing newline
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewChampSimReader(bytes.NewReader(data))
		for n := 0; ; n++ {
			rec, err := r.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next: untyped error %v", err)
				}
				return
			}
			// A record needs at least two one-byte fields and a separator.
			if 3*(n+1) > len(data) {
				t.Fatalf("decoded %d records from %d bytes", n+1, len(data))
			}
			var line bytes.Buffer
			w := NewChampSimWriter(&line)
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := NewChampSimReader(&line).Next()
			if err != nil || back != rec {
				t.Fatalf("record %+v re-read as %+v (%v) from %q", rec, back, err, line.String())
			}
		}
	})
}
