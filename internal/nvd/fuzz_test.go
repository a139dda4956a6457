package nvd

import (
	"testing"
	"time"
)

// FuzzParseRetryAfter asserts that an accepted Retry-After header never
// yields a negative delay, whatever the server sends.
func FuzzParseRetryAfter(f *testing.F) {
	for _, h := range []string{"", "0", "120", "1.5", "-1", "1e10", "1e300", "Inf", "+Inf",
		"NaN", "9223372036.854775807", "Wed, 21 Oct 2015 07:28:00 GMT", "soon"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		if d, ok := parseRetryAfter(h); ok && d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, true: negative delay", h, d)
		}
	})
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		h    string
		want time.Duration
		ok   bool
	}{
		{"120", 120 * time.Second, true},
		{"1.5", 1500 * time.Millisecond, true},
		{"9223372036", 9223372036 * time.Second, true},
		{"9223372037", 0, false}, // past the largest Duration
		{"1e10", 0, false},
		{"1e300", 0, false},
		{"Inf", 0, false},
		{"NaN", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, true}, // a past date: retry now
	} {
		got, ok := parseRetryAfter(tc.h)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", tc.h, got, ok, tc.want, tc.ok)
		}
	}
}
