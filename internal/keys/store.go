// Package keys is the server side of the client-held-key protocol: a
// bounded store of per-client evaluation-key bundles (public key,
// relinearization key, rotation keys) addressed by content fingerprint.
//
// The store never sees a secret key — bundles are validated against the
// wire format's structural checks, bound to the server's exact CKKS
// instantiation through the params digest, and checked for coverage of
// the loaded plan's rotation set before they are accepted. Entries are
// evicted least-recently-used beyond a capacity bound and lazily expired
// after a TTL, since each bundle pins megabytes of switching-key
// material.
//
// With Config.Dir set the store is durable: accepted registrations are
// snapshotted to disk via atomic renames, a restart replays and
// re-verifies the directory (so a worker crash loses no client state),
// and a background compactor removes the files of evicted entries.
package keys

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ring"
)

// Typed registration/lookup failures; match with errors.Is. Decode
// failures surface as the ckks typed errors (ErrFormat/ErrChecksum).
var (
	// ErrNotFound: no bundle under that fingerprint (never registered,
	// evicted, or expired).
	ErrNotFound = errors.New("keys: unknown key fingerprint")
	// ErrParamsMismatch: the bundle was generated under a different CKKS
	// instantiation than this server runs. It is ckks.ErrParamsMismatch,
	// which ckks.ReadKeyBundle returns as soon as it reads the digest.
	ErrParamsMismatch = ckks.ErrParamsMismatch
	// ErrMissingRotations: the bundle's rotation-key set does not cover
	// the loaded plan's required rotations.
	ErrMissingRotations = errors.New("keys: rotation keys missing for plan")
)

// Config sizes and binds a Store.
type Config struct {
	// Ctx is the server's CKKS context; registered bundles must carry its
	// exact params digest.
	Ctx *ckks.Context
	// RequiredRotations is the loaded plan's rotation set (slot shifts;
	// zero entries ignored). Every registered bundle must hold a
	// switching key for each.
	RequiredRotations []int
	// MaxEntries bounds the store; the least-recently-used entry is
	// evicted beyond it. 0 selects DefaultMaxEntries.
	MaxEntries int
	// TTL expires entries that long after their last use. 0 disables
	// expiry.
	TTL time.Duration
	// Dir, when non-empty, makes the store durable: every accepted
	// registration is snapshotted to <Dir>/<fingerprint>.bundle via an
	// atomic rename, and NewStore replays (and re-verifies) the
	// directory so a worker restart recovers all client state.
	Dir string
	// CompactInterval is the background compactor's sweep period for
	// bundle files whose entries were evicted or expired. 0 selects
	// DefaultCompactInterval; negative disables the background loop
	// (Compact can still be called directly). Ignored when Dir is empty.
	CompactInterval time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// DefaultMaxEntries bounds the store when Config.MaxEntries is zero:
// switching-key bundles run to megabytes each, so the default is
// deliberately small.
const DefaultMaxEntries = 16

// Entry is one registered client's evaluation-key material plus the
// consumer's cached evaluation state.
type Entry struct {
	// Fingerprint is the content address: hex(SHA-256(bundle bytes)).
	Fingerprint string
	// Bundle is the decoded key material.
	Bundle *ckks.KeyBundle
	// Size is the serialized bundle's byte count.
	Size int
	// RegisteredAt is when the bundle was first registered.
	RegisteredAt time.Time

	// Mu serializes evaluation under this client's keys (the evaluator
	// and any guard state attached below are not safe for concurrent
	// runs).
	Mu sync.Mutex
	// Eval is consumer-attached evaluation state (engine + prepared
	// graph), built lazily on first use and dropped with the entry.
	Eval any
}

// Store is a bounded, fingerprint-addressed bundle store. Safe for
// concurrent use.
type Store struct {
	cfg     Config
	galEls  []uint64 // required Galois elements, sorted
	mu      sync.Mutex
	entries map[string]*list.Element // fingerprint → lru element holding *Entry
	lru     *list.List               // front = most recently used
	lastUse map[string]time.Time

	stop      chan struct{} // closes the background compactor (durable stores)
	closeOnce sync.Once
}

// NewStore builds a store bound to the server's context and plan.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Ctx == nil {
		return nil, fmt.Errorf("keys: Config.Ctx is required")
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxEntries < 0 {
		return nil, fmt.Errorf("keys: MaxEntries %d must be positive", cfg.MaxEntries)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	logN := cfg.Ctx.Params.LogN
	seen := map[uint64]bool{}
	var els []uint64
	for _, rot := range cfg.RequiredRotations {
		g := ring.GaloisElementForRotation(logN, rot)
		if g != 1 && !seen[g] { // element 1 is the identity, which needs no key
			seen[g] = true
			els = append(els, g)
		}
	}
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
	s := &Store{
		cfg:     cfg,
		galEls:  els,
		entries: map[string]*list.Element{},
		lru:     list.New(),
		lastUse: map[string]time.Time{},
	}
	if cfg.Dir != "" {
		if err := s.loadDir(); err != nil {
			return nil, err
		}
		if cfg.CompactInterval >= 0 {
			interval := cfg.CompactInterval
			if interval == 0 {
				interval = DefaultCompactInterval
			}
			s.stop = make(chan struct{})
			go s.compactLoop(interval)
		}
	}
	return s, nil
}

// RequiredGaloisElements returns the plan's rotation requirement as
// sorted Galois elements (what /v1/info advertises alongside the raw
// rotation list).
func (s *Store) RequiredGaloisElements() []uint64 {
	out := make([]uint64, len(s.galEls))
	copy(out, s.galEls)
	return out
}

// Register decodes, validates, and stores a serialized bundle, returning
// its entry. Registration is idempotent: re-registering the same bytes
// returns the existing entry (and refreshes its recency). Decode errors
// are ckks.ErrFormat/ErrChecksum; compatibility errors are
// ErrParamsMismatch/ErrMissingRotations.
func (s *Store) Register(data []byte) (*Entry, error) {
	fp := ckks.BundleFingerprint(data)

	s.mu.Lock()
	if el, ok := s.entries[fp]; ok && !s.expiredLocked(fp) {
		s.touchLocked(fp, el)
		e := el.Value.(*Entry)
		s.mu.Unlock()
		keysTel().hit()
		return e, nil
	}
	s.mu.Unlock()

	bundle, err := s.decodeValidate(data)
	if err != nil {
		return nil, err
	}

	e := &Entry{
		Fingerprint:  fp,
		Bundle:       bundle,
		Size:         len(data),
		RegisteredAt: s.cfg.Clock(),
	}
	s.mu.Lock()
	// Lost a race with a concurrent identical registration: keep theirs.
	if el, ok := s.entries[fp]; ok && !s.expiredLocked(fp) {
		s.touchLocked(fp, el)
		prior := el.Value.(*Entry)
		s.mu.Unlock()
		return prior, nil
	}
	s.removeLocked(fp) // drop an expired shell if one remains
	el := s.lru.PushFront(e)
	s.entries[fp] = el
	s.lastUse[fp] = s.cfg.Clock()
	for s.lru.Len() > s.cfg.MaxEntries {
		s.evictLocked(s.lru.Back(), "lru")
	}
	n := s.lru.Len()
	s.mu.Unlock()
	// Snapshot to disk before acking: a client told "registered" must
	// survive a crash. The entry is already in the map, so the compactor
	// cannot race the file away; on write failure the entry is rolled
	// back and the client retries.
	if s.cfg.Dir != "" {
		if perr := s.persist(fp, data); perr != nil {
			s.mu.Lock()
			s.removeLocked(fp)
			s.mu.Unlock()
			return nil, fmt.Errorf("keys: persisting bundle: %w", perr)
		}
	}
	keysTel().registered(len(data), n)
	return e, nil
}

// decodeValidate runs the full acceptance check on serialized bundle
// bytes: params-digest binding (checked first, by ReadKeyBundle), frame
// decode (version + CRC), and rotation coverage for the loaded plan.
// Shared by Register and the durable reload so a restart re-verifies
// exactly what registration verified.
func (s *Store) decodeValidate(data []byte) (*ckks.KeyBundle, error) {
	bundle, err := s.cfg.Ctx.ReadKeyBundle(bytes.NewReader(data))
	if errors.Is(err, ErrParamsMismatch) {
		keysTel().rejected("params")
		return nil, err
	}
	if err != nil {
		keysTel().rejected("format")
		return nil, err
	}
	for _, g := range s.galEls {
		if bundle.RTK == nil || bundle.RTK.Keys[g] == nil {
			keysTel().rejected("rotations")
			return nil, fmt.Errorf("%w: no switching key for Galois element %d (plan needs %d rotations)",
				ErrMissingRotations, g, len(s.galEls))
		}
	}
	return bundle, nil
}

// Get returns the entry under fp, refreshing its recency. ErrNotFound
// covers never-registered, evicted, and TTL-expired fingerprints alike.
func (s *Store) Get(fp string) (*Entry, error) {
	s.mu.Lock()
	el, ok := s.entries[fp]
	if ok && s.expiredLocked(fp) {
		s.evictLocked(el, "ttl")
		ok = false
	}
	if !ok {
		n := s.lru.Len()
		s.mu.Unlock()
		keysTel().miss(n)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	s.touchLocked(fp, el)
	e := el.Value.(*Entry)
	s.mu.Unlock()
	keysTel().hit()
	return e, nil
}

// Len reports the live entry count (expired entries that have not been
// touched still count until lazily collected).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

func (s *Store) expiredLocked(fp string) bool {
	if s.cfg.TTL <= 0 {
		return false
	}
	last, ok := s.lastUse[fp]
	return ok && s.cfg.Clock().Sub(last) > s.cfg.TTL
}

func (s *Store) touchLocked(fp string, el *list.Element) {
	s.lru.MoveToFront(el)
	s.lastUse[fp] = s.cfg.Clock()
}

func (s *Store) removeLocked(fp string) {
	if el, ok := s.entries[fp]; ok {
		s.lru.Remove(el)
		delete(s.entries, fp)
		delete(s.lastUse, fp)
	}
}

func (s *Store) evictLocked(el *list.Element, reason string) {
	e := el.Value.(*Entry)
	s.lru.Remove(el)
	delete(s.entries, e.Fingerprint)
	delete(s.lastUse, e.Fingerprint)
	keysTel().evicted(reason, s.lru.Len())
}
