package overhead

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzOverheadLoad fuzzes the database decoder, which reads bytes that
// arrive with installed and gossiped assets. Its oracle: whatever Load
// accepts, Marshal renders as bytes Load reads back to the same database,
// which renders to the same bytes — decode, encode, decode is a fixed
// point. The checked-in corpus (testdata/fuzz/FuzzOverheadLoad) holds a
// truncated document, a null per_op table, out-of-range numbers and one
// real marshalled database.
func FuzzOverheadLoad(f *testing.F) {
	f.Add([]byte(`{"t1":{"mean":8.5,"std":1.25,"n":3},"per_op":{"aten::relu":[{"mean":1,"n":1},{},{}]},"t4":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(data)
		if err != nil {
			return
		}
		raw, err := db.Marshal()
		if err != nil {
			t.Fatalf("Load accepted %q, Marshal refused the result: %v", data, err)
		}
		again, err := Load(raw)
		if err != nil {
			t.Fatalf("Load refused what Marshal wrote, %s: %v", raw, err)
		}
		if !reflect.DeepEqual(again, db) {
			t.Fatalf("decoded %+v, after a round trip %+v", db, again)
		}
		if raw2, err := again.Marshal(); err != nil || !bytes.Equal(raw2, raw) {
			t.Fatalf("second Marshal %s (err %v), first %s", raw2, err, raw)
		}
	})
}
