package patchdb

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadDataset feeds arbitrary bytes to LoadDataset, the decoder behind
// every dataset file and every serve reload. It must never panic, and any
// dataset it accepts must survive SaveJSON and a reload unchanged.
func FuzzLoadDataset(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleDataset().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"nvd":null,"wild":[],"synthetic":[{"id":"x","pattern":3}]}`))
	f.Add([]byte(`{"nvd":[{"id":""}]}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`{"non_security":[{"id":"\ud800","text":"\xff"}]}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := LoadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "ds.json")
		if err := ds.SaveJSON(path); err != nil {
			t.Fatalf("SaveJSON of an accepted dataset: %v", err)
		}
		got, err := LoadDatasetFile(path)
		if err != nil {
			t.Fatalf("reload of a saved dataset: %v", err)
		}
		if !reflect.DeepEqual(got, ds) {
			t.Fatalf("round trip changed the dataset:\n got %+v\nwant %+v", got, ds)
		}
	})
}
