package query

import (
	"errors"
	"testing"

	"latenttruth/internal/integrate"
)

// FuzzCursor asserts the cursor contract on arbitrary tokens: decoding
// never panics and fails only with ErrBadCursor; Truth and Records fail
// only with ErrBadCursor or ErrStaleCursor; encodeCursor round-trips for
// every non-negative resume id; and a page resumed from a valid cursor is
// the unpaged table's suffix from the resume id, cut at the page limit,
// with a next cursor pointing at the first row left out.
func FuzzCursor(f *testing.F) {
	v := testView(f, 5)
	r, err := Truth(v, TruthOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var all []Row
	for row, ok := r.Next(); ok; row, ok = r.Next() {
		all = append(all, row)
	}
	records := make([]*integrate.Record, len(v.Records))
	for e := range v.Records {
		records[e] = &v.Records[e]
	}

	f.Add("", int64(0), int64(0), uint8(0))
	f.Add(encodeCursor(v.Seq, 3), v.Seq, int64(3), uint8(2))
	f.Add(encodeCursor(v.Seq+1, 4), v.Seq+1, int64(4), uint8(0))
	f.Add(encodeCursor(v.Seq, len(all)), v.Seq, int64(len(all)+5), uint8(1))
	f.Add(encodeCursor(v.Seq, 3)+"x", int64(-1), int64(-3), uint8(7))
	f.Add("garbage!!", int64(1<<62), int64(1<<62), uint8(255))
	f.Add("cXl6", int64(0), int64(-1), uint8(3))
	f.Add(encodeCursor(v.Seq, -1), v.Seq, int64(0), uint8(1))
	f.Add(encodeCursor(v.Seq, 0)[:4], int64(-1<<63), int64(1), uint8(1))

	f.Fuzz(func(t *testing.T, token string, seq, n int64, limit uint8) {
		if _, _, err := decodeCursor(token); err != nil && !errors.Is(err, ErrBadCursor) {
			t.Fatalf("decodeCursor(%q): %v is not ErrBadCursor", token, err)
		}
		if n >= 0 {
			gotSeq, gotNext, err := decodeCursor(encodeCursor(seq, int(n)))
			if err != nil || gotSeq != seq || gotNext != int(n) {
				t.Fatalf("round trip (%d, %d) = (%d, %d, %v)", seq, n, gotSeq, gotNext, err)
			}
			// Also resume from a valid cursor of this view, so the suffix
			// check runs on most inputs, not only the rare decodable token.
			checkTruthPage(t, v, all, encodeCursor(v.Seq, int(n)), int(limit))
			checkRecordsPage(t, v, records, encodeCursor(v.Seq, int(n)), int(limit))
		}
		checkTruthPage(t, v, all, token, int(limit))
		checkRecordsPage(t, v, records, token, int(limit))
	})
}

// cursorErr fails t unless err is one of the two cursor errors.
func cursorErr(t *testing.T, what, cursor string, err error) {
	t.Helper()
	if !errors.Is(err, ErrBadCursor) && !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("%s with cursor %q: %v is neither ErrBadCursor nor ErrStaleCursor", what, cursor, err)
	}
}

// resumeAt returns where a page served from cursor must start.
func resumeAt(t *testing.T, cursor string, size int) int {
	t.Helper()
	start := 0
	if cursor != "" {
		_, next, err := decodeCursor(cursor)
		if err != nil || next < 0 {
			t.Fatalf("query accepted malformed cursor %q", cursor)
		}
		start = next
	}
	return min(start, size)
}

// checkPage asserts a page served from cursor is the slice of the unpaged
// table all that starts at the cursor's resume id and holds at most limit
// rows (all of the rest at limit 0), and that its next cursor points at the
// first row left out.
func checkPage[R comparable](t *testing.T, v *View, all []R, cursor string, limit int, next func() (R, bool), nextCursor func() string) {
	t.Helper()
	start := resumeAt(t, cursor, len(all))
	end := len(all)
	if limit > 0 {
		end = min(start+limit, end)
	}
	for i := start; ; i++ {
		row, ok := next()
		if !ok {
			if i != end {
				t.Fatalf("cursor %q limit %d: page ended at row %d, want %d", cursor, limit, i, end)
			}
			break
		}
		if i >= end || row != all[i] {
			t.Fatalf("cursor %q limit %d: row %d = %+v is not the unpaged table's", cursor, limit, i, row)
		}
	}
	if end == len(all) {
		if c := nextCursor(); c != "" {
			t.Fatalf("exhausted page minted cursor %q", c)
		}
		return
	}
	if seq, id, err := decodeCursor(nextCursor()); err != nil || seq != v.Seq || id != end {
		t.Fatalf("next cursor %q = (%d, %d, %v), want (%d, %d)", nextCursor(), seq, id, err, v.Seq, end)
	}
}

// checkTruthPage runs checkPage on a Truth page.
func checkTruthPage(t *testing.T, v *View, all []Row, cursor string, limit int) {
	t.Helper()
	r, err := Truth(v, TruthOptions{Cursor: cursor, Limit: limit})
	if err != nil {
		cursorErr(t, "Truth", cursor, err)
		return
	}
	checkPage(t, v, all, cursor, limit, r.Next, r.NextCursor)
}

// checkRecordsPage runs checkPage on a Records page, whose rows must alias
// the view's record table in entity order.
func checkRecordsPage(t *testing.T, v *View, records []*integrate.Record, cursor string, limit int) {
	t.Helper()
	r, err := Records(v, RecordOptions{Cursor: cursor, Limit: limit})
	if err != nil {
		cursorErr(t, "Records", cursor, err)
		return
	}
	checkPage(t, v, records, cursor, limit, r.Next, r.NextCursor)
}
