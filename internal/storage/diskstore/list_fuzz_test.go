package diskstore

// decodeList reads list-valued property blobs straight from blobs.db, so
// it must survive any bytes: a corrupt blob is an error, never a panic
// or an allocation sized by an untrusted count.

import (
	"encoding/binary"
	"testing"

	"repro/internal/graph"
)

// listBlob builds a raw list blob: a little-endian element count
// followed by the given element bytes.
func listBlob(count uint32, elems ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, count), elems...)
}

func TestDecodeListRejectsCorruptBlobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"short header", []byte{1, 0, 0}},
		{"truncated int", listBlob(1, byte(graph.KindInt))},
		{"truncated int payload", listBlob(1, byte(graph.KindInt), 1, 2, 3)},
		{"truncated float", listBlob(1, byte(graph.KindFloat), 0, 0, 0, 0, 0, 0, 0)},
		{"truncated bool", listBlob(1, byte(graph.KindBool))},
		{"truncated string length", listBlob(1, byte(graph.KindString), 3, 0)},
		{"string length past the end", listBlob(1, byte(graph.KindString), 9, 0, 0, 0, 'a', 'b')},
		{"missing element", listBlob(2, byte(graph.KindNull))},
		{"oversized count", listBlob(64, byte(graph.KindNull), byte(graph.KindNull))},
		{"unknown kind", listBlob(1, 0xee)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if v, err := decodeList(tc.blob); err == nil {
				t.Fatalf("decodeList(%v) = %v, want an error", tc.blob, v)
			}
		})
	}
}

// FuzzDecodeList: arbitrary bytes never panic decodeList, and whatever
// it accepts re-encodes to a blob that decodes to the same value.
func FuzzDecodeList(f *testing.F) {
	seed, err := encodeList([]graph.Value{graph.I(7), graph.S("x"), graph.B(false), graph.F(-1), graph.Null})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add(listBlob(1, byte(graph.KindInt)))
	f.Add(listBlob(1, byte(graph.KindString), 0xff, 0xff, 0xff, 0x0f))
	f.Add(listBlob(200, byte(graph.KindNull)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeList(data)
		if err != nil {
			return
		}
		blob, err := encodeList(v.List())
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", v, err)
		}
		again, err := decodeList(blob)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", v, err)
		}
		if again.String() != v.String() {
			t.Fatalf("round trip changed %v to %v", v, again)
		}
	})
}
