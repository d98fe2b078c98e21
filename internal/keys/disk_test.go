package keys

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cnnhe/internal/ckks"
)

// durableStore builds a store over dir with background compaction
// disabled (tests drive Compact explicitly).
func durableStore(t *testing.T, ctx *ckks.Context, dir string, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{Ctx: ctx, Dir: dir, CompactInterval: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), bundleSuffix) {
			out = append(out, de.Name())
		}
	}
	return out
}

// TestDurableRegisterSurvivesRestart is the crash-recovery core: bundles
// registered with one store are fully usable from a fresh store over the
// same directory, with the reload re-verifying every file.
func TestDurableRegisterSurvivesRestart(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	s1 := durableStore(t, ctx, dir, nil)
	a := bundleFixture(t, ctx, 40, []int{1, 2})
	b := bundleFixture(t, ctx, 41, []int{1, 2})
	ea, err := s1.Register(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := s1.Register(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := bundleFiles(t, dir); len(got) != 2 {
		t.Fatalf("expected 2 bundle files, found %v", got)
	}
	// No leftover temp files: every snapshot either renamed or vanished.
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tempPrefix) {
			t.Fatalf("stale temp file %s after registration", de.Name())
		}
	}

	// "Crash": abandon s1 without any shutdown, reload the directory.
	s2 := durableStore(t, ctx, dir, nil)
	if s2.Len() != 2 {
		t.Fatalf("reload recovered %d entries, want 2", s2.Len())
	}
	for _, fp := range []string{ea.Fingerprint, eb.Fingerprint} {
		e, err := s2.Get(fp)
		if err != nil {
			t.Fatalf("recovered entry %s: %v", fp[:8], err)
		}
		if e.Bundle == nil || e.Bundle.RTK == nil {
			t.Fatalf("recovered entry %s has no key material", fp[:8])
		}
	}
	// Re-registering recovered bytes is still idempotent.
	again, err := s2.Register(a)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != ea.Fingerprint || s2.Len() != 2 {
		t.Fatal("re-registration after reload duplicated the entry")
	}
}

// TestDurableReloadQuarantinesCorrupt: garbage, bit-rotted, and
// misnamed files are renamed aside (not deleted, not served) while the
// valid file still loads.
func TestDurableReloadQuarantinesCorrupt(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	s1 := durableStore(t, ctx, dir, nil)
	good := bundleFixture(t, ctx, 42, []int{1})
	eg, err := s1.Register(good)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-rot an otherwise valid file in place.
	rotted := append([]byte(nil), good...)
	rotted[len(rotted)/2] ^= 0x10
	rotName := ckks.BundleFingerprint(good)[:32] + "0000" + bundleSuffix
	if err := os.WriteFile(filepath.Join(dir, rotName), rotted, 0o600); err != nil {
		t.Fatal(err)
	}
	// Valid bytes under the wrong fingerprint name.
	other := bundleFixture(t, ctx, 43, []int{1})
	if err := os.WriteFile(filepath.Join(dir, "feedface"+bundleSuffix), other, 0o600); err != nil {
		t.Fatal(err)
	}
	// Outright garbage.
	if err := os.WriteFile(filepath.Join(dir, "00ff00ff"+bundleSuffix), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := durableStore(t, ctx, dir, nil)
	if s2.Len() != 1 {
		t.Fatalf("reload kept %d entries, want only the valid one", s2.Len())
	}
	if _, err := s2.Get(eg.Fingerprint); err != nil {
		t.Fatalf("valid entry lost in reload: %v", err)
	}
	quarantined := 0
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), quarantineSuffix) {
			quarantined++
		}
	}
	if quarantined != 3 {
		t.Fatalf("quarantined %d files, want 3", quarantined)
	}
}

// TestDurableCompactionRemovesEvicted: LRU and TTL evictions leave
// orphan files that Compact removes, while live files survive.
func TestDurableCompactionRemovesEvicted(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	now := time.Unix(5000, 0)
	s := durableStore(t, ctx, dir, func(c *Config) {
		c.MaxEntries = 1
		c.TTL = time.Minute
		c.Clock = func() time.Time { return now }
	})
	a, err := s.Register(bundleFixture(t, ctx, 44, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register(bundleFixture(t, ctx, 45, nil)) // evicts a (LRU)
	if err != nil {
		t.Fatal(err)
	}
	if got := bundleFiles(t, dir); len(got) != 2 {
		t.Fatalf("want 2 files before compaction, got %v", got)
	}
	if n := s.Compact(); n != 1 {
		t.Fatalf("compaction removed %d files, want 1 (the LRU victim)", n)
	}
	files := bundleFiles(t, dir)
	if len(files) != 1 || files[0] != b.Fingerprint+bundleSuffix {
		t.Fatalf("survivor files %v, want only %s", files, b.Fingerprint[:8])
	}
	_ = a

	// TTL expiry: compaction collects the expired entry and its file.
	now = now.Add(2 * time.Minute)
	if n := s.Compact(); n != 1 {
		t.Fatalf("compaction removed %d files after TTL, want 1", n)
	}
	if s.Len() != 0 {
		t.Fatalf("expired entry still live: Len=%d", s.Len())
	}
	if got := bundleFiles(t, dir); len(got) != 0 {
		t.Fatalf("files remain after TTL compaction: %v", got)
	}
}

// TestDurableReloadHonorsMaxEntries: a directory larger than the
// configured bound reloads only the newest MaxEntries bundles, and
// compaction then drops the excess files.
func TestDurableReloadHonorsMaxEntries(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	s1 := durableStore(t, ctx, dir, nil)
	var fps []string
	for i := int64(0); i < 3; i++ {
		data := bundleFixture(t, ctx, 50+i, nil)
		e, err := s1.Register(data)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, e.Fingerprint)
		// Distinct mtimes so reload order (oldest first) is deterministic.
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, e.Fingerprint+bundleSuffix), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s2 := durableStore(t, ctx, dir, func(c *Config) { c.MaxEntries = 2 })
	if s2.Len() != 2 {
		t.Fatalf("reload kept %d entries, want 2", s2.Len())
	}
	if _, err := s2.Get(fps[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest bundle should be the reload-eviction victim, got %v", err)
	}
	for _, fp := range fps[1:] {
		if _, err := s2.Get(fp); err != nil {
			t.Fatalf("newest bundles must survive the bounded reload: %v", err)
		}
	}
	if n := s2.Compact(); n != 1 {
		t.Fatalf("compaction removed %d files, want the 1 evicted at reload", n)
	}
}

// TestDurablePersistFailureRollsBack: when the snapshot cannot be
// written the registration fails and leaves no entry behind, so the
// client's retry is consistent with server state.
func TestDurablePersistFailureRollsBack(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	s := durableStore(t, ctx, dir, nil)
	data := bundleFixture(t, ctx, 60, nil)
	// Make the directory unwritable so CreateTemp fails.
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o700)
	if os.Geteuid() == 0 {
		t.Skip("directory permissions do not bind as root")
	}
	if _, err := s.Register(data); err == nil {
		t.Fatal("registration should fail when the snapshot cannot be written")
	}
	if s.Len() != 0 {
		t.Fatalf("failed registration left %d entries", s.Len())
	}
}

// TestDurableReloadQuarantinesOneLimbDigitSnapshot: a snapshot written
// before key-switch digits became limb groups — N = 2^5, chain
// [40, 26, 26] under a 60-bit special, one switching-key digit per limb
// (three) where the chain now has two, under the old params digest — is
// refused on reload as a parameter mismatch and quarantined, never
// served. testdata/one-limb-digits-bundle.bin holds its exact bytes.
func TestDurableReloadQuarantinesOneLimbDigitSnapshot(t *testing.T) {
	p, err := ckks.NewParameters(5, []int{40, 26, 26}, 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Digits(p.MaxLevel()); len(d) != 2 {
		t.Fatalf("chain has digits %v, want two", d)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "one-limb-digits-bundle.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.ReadKeyBundle(bytes.NewReader(old)); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("old bundle: want ErrParamsMismatch, got %v", err)
	}
	dir := t.TempDir()
	name := filepath.Join(dir, ckks.BundleFingerprint(old)+bundleSuffix)
	if err := os.WriteFile(name, old, 0o600); err != nil {
		t.Fatal(err)
	}
	s := durableStore(t, ctx, dir, nil)
	if s.Len() != 0 {
		t.Fatalf("reload kept %d entries from an old snapshot", s.Len())
	}
	if _, err := os.Stat(name + quarantineSuffix); err != nil {
		t.Fatalf("old snapshot not quarantined: %v", err)
	}
	if _, err := s.Register(old); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("re-registering the old bundle: want ErrParamsMismatch, got %v", err)
	}
}
