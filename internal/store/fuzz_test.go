package store

import (
	"errors"
	"net/http"
	"net/url"
	"testing"
)

// FuzzParseQuery drives the /v1/patches path below the HTTP layer: any URL
// query string and cursor goes through parseQuery and then Snapshot.List.
// Neither may panic; a parse error is a 400 on its own, and every List error
// must wrap ErrBadQuery. An accepted query returns at most MaxLimit records,
// in ascending ID order, strictly after the cursor.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []struct{ raw, cursor string }{
		{"", ""},
		{"source=nvd&limit=3", ""},
		{"security=true&pattern=4", "commit-0010"},
		{"security=maybe", ""},
		{"limit=501", ""},
		{"limit=-1&pattern=13", ""},
		{"repo=repo-1-v1&limit=500", "commit-0099"},
		{"%zz&source=%", "\x00"},
	} {
		f.Add(seed.raw, seed.cursor)
	}
	sn := New(3, nil).Load(testDataset(200, "v1"))
	f.Fuzz(func(t *testing.T, raw, cursor string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw + "&cursor=" + url.QueryEscape(cursor)}}
		q, err := parseQuery(r)
		if err != nil {
			return // reported to the client as a 400
		}
		page, err := sn.List(q)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("List(%+v) err = %v, want ErrBadQuery", q, err)
			}
			return
		}
		if len(page.Records) > MaxLimit {
			t.Fatalf("List(%+v) returned %d records, cap is %d", q, len(page.Records), MaxLimit)
		}
		prev := q.Cursor
		for i, rec := range page.Records {
			if (i > 0 || q.Cursor != "") && rec.ID <= prev {
				t.Fatalf("List(%+v): record %d id %q not after %q", q, i, rec.ID, prev)
			}
			prev = rec.ID
		}
	})
}
