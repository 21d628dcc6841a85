package vault

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
)

func testRecord(t *testing.T, user string) *passpoints.Record {
	t.Helper()
	s, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := passpoints.Config{
		Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: s, Iterations: 2,
	}
	rec, err := passpoints.Enroll(cfg, user, []geom.Point{
		geom.Pt(10, 10), geom.Pt(50, 60), geom.Pt(100, 200),
		geom.Pt(300, 30), geom.Pt(440, 320),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestPutGetDelete(t *testing.T) {
	v := NewSharded(0)
	rec := testRecord(t, "alice")
	if err := v.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get("alice")
	if err != nil || got.User != "alice" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if err := v.Put(rec); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Put = %v, want ErrExists", err)
	}
	v.Delete("alice")
	if _, err := v.Get("alice"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	v.Delete("alice") // idempotent
}

func TestReplace(t *testing.T) {
	v := NewSharded(0)
	r1 := testRecord(t, "bob")
	r2 := testRecord(t, "bob")
	if err := v.Put(r1); err != nil {
		t.Fatal(err)
	}
	if err := v.Replace(r2); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Get("bob")
	if string(got.Salt) != string(r2.Salt) {
		t.Error("Replace did not overwrite")
	}
}

func TestPutValidation(t *testing.T) {
	v := NewSharded(0)
	if err := v.Put(nil); err == nil {
		t.Error("nil record accepted")
	}
	if err := v.Put(&passpoints.Record{}); err == nil {
		t.Error("record without user accepted")
	}
	if err := v.Replace(nil); err == nil {
		t.Error("Replace nil accepted")
	}
}

func TestUsersSortedAndLen(t *testing.T) {
	v := NewSharded(0)
	for _, u := range []string{"zoe", "alice", "mike"} {
		if err := v.Put(testRecord(t, u)); err != nil {
			t.Fatal(err)
		}
	}
	users := v.Users()
	want := []string{"alice", "mike", "zoe"}
	if len(users) != 3 {
		t.Fatalf("Users() = %v", users)
	}
	for i := range want {
		if users[i] != want[i] {
			t.Fatalf("Users() = %v, want %v", users, want)
		}
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	all := v.All()
	if len(all) != 3 || all[0].User != "alice" || all[2].User != "zoe" {
		t.Error("All() not sorted by user")
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vault.json")
	v, err := OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	if err := v.Put(testRecord(t, "carol")); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := back.Get("carol")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != passpoints.KindCentered || rec.SquareSidePx != 13 {
		t.Errorf("round-trip mangled record: %+v", rec)
	}
}

func TestSaveToIsAtomicOnOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vault.json")
	v := NewSharded(0)
	if err := v.Put(testRecord(t, "dave")); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second state; a reopen must see exactly one of
	// the two complete states (here: the final one).
	if err := v.Put(testRecord(t, "erin")); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSharded(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("reopened store has %d records, want 2", back.Len())
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp files leaked)", len(entries))
	}
}

func TestConcurrentAccess(t *testing.T) {
	v := NewSharded(0)
	var wg sync.WaitGroup
	rec := testRecord(t, "seed")
	if err := v.Put(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, _ = v.Get("seed")
				_ = v.Users()
				_ = v.Len()
			}
		}(i)
	}
	wg.Wait()
}
