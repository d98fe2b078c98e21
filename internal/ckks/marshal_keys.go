package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
)

// Key-material wire format, built on the same [tag][version][payload][crc32]
// framing as marshal.go. Composite objects (rotation-key sets, the bundle
// envelope) nest complete inner frames: the inner CRC localizes corruption
// to one key, the outer CRC covers the whole object including the nesting
// structure itself.

const (
	tagRelinKey  byte = 0x4B
	tagRotKeySet byte = 0x6E
	tagSecretKey byte = 0x92
	tagKeyBundle byte = 0xE1
)

// WriteRelinearizationKey serializes rlk.
func (ctx *Context) WriteRelinearizationKey(w io.Writer, rlk *RelinearizationKey) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagRelinKey, formatVersion}); err != nil {
		return err
	}
	if err := ctx.WriteSwitchingKey(cw, &rlk.SwitchingKey); err != nil {
		return err
	}
	return cw.writeSum()
}

// ReadRelinearizationKey deserializes a relinearization key.
func (ctx *Context) ReadRelinearizationKey(r io.Reader) (*RelinearizationKey, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagRelinKey, "relinearization key"); err != nil {
		return nil, err
	}
	swk, err := ctx.ReadSwitchingKey(cr)
	if err != nil {
		return nil, err
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return &RelinearizationKey{SwitchingKey: *swk}, nil
}

// WriteRotationKeySet serializes set. Keys are written in ascending
// Galois-element order, so equal sets serialize to identical bytes — the
// property the content fingerprint relies on.
func (ctx *Context) WriteRotationKeySet(w io.Writer, set *RotationKeySet) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagRotKeySet, formatVersion}); err != nil {
		return err
	}
	var n int
	if set != nil {
		n = len(set.Keys)
	}
	if err := writeUint64(cw, uint64(n)); err != nil {
		return err
	}
	els := make([]uint64, 0, n)
	if set != nil {
		for g := range set.Keys {
			els = append(els, g)
		}
	}
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
	for _, g := range els {
		if err := writeUint64(cw, g); err != nil {
			return err
		}
		if err := ctx.WriteSwitchingKey(cw, set.Keys[g]); err != nil {
			return err
		}
	}
	return cw.writeSum()
}

// ReadRotationKeySet deserializes a rotation-key set.
func (ctx *Context) ReadRotationKeySet(r io.Reader) (*RotationKeySet, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagRotKeySet, "rotation key set"); err != nil {
		return nil, err
	}
	n, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	// Galois elements are odd residues mod 2N: at most N distinct keys.
	if n > uint64(ctx.Params.N()) {
		return nil, fmt.Errorf("%w: rotation key count %d exceeds ring degree %d", ErrFormat, n, ctx.Params.N())
	}
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey, n)}
	twoN := uint64(2 * ctx.Params.N())
	for i := uint64(0); i < n; i++ {
		g, err := readUint64(cr)
		if err != nil {
			return nil, err
		}
		if g%2 == 0 || g >= twoN {
			return nil, fmt.Errorf("%w: Galois element %d not an odd residue mod %d", ErrFormat, g, twoN)
		}
		if _, dup := set.Keys[g]; dup {
			return nil, fmt.Errorf("%w: duplicate Galois element %d", ErrFormat, g)
		}
		swk, err := ctx.ReadSwitchingKey(cr)
		if err != nil {
			return nil, err
		}
		set.Keys[g] = swk
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return set, nil
}

// WriteSecretKey serializes sk. Only the centered ternary coefficient
// vector is written; the NTT-domain polynomial is a deterministic
// function of it and is rebuilt on read. Handle the output like the key
// itself — it IS the key.
func (ctx *Context) WriteSecretKey(w io.Writer, sk *SecretKey) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagSecretKey, formatVersion}); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(len(sk.Vec))); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range sk.Vec {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		if _, err := cw.Write(buf[:]); err != nil {
			return err
		}
	}
	return cw.writeSum()
}

// ReadSecretKey deserializes a secret key and rebuilds its NTT-domain
// polynomial on all QP limbs.
func (ctx *Context) ReadSecretKey(r io.Reader) (*SecretKey, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagSecretKey, "secret key"); err != nil {
		return nil, err
	}
	n, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	if n != uint64(ctx.Params.N()) {
		return nil, fmt.Errorf("%w: secret key length %d, ring degree %d", ErrFormat, n, ctx.Params.N())
	}
	vec := make([]int64, n)
	var buf [8]byte
	for i := range vec {
		if _, err := io.ReadFull(cr, buf[:]); err != nil {
			return nil, badFormat(err)
		}
		v := int64(binary.LittleEndian.Uint64(buf[:]))
		if v < -1 || v > 1 {
			return nil, fmt.Errorf("%w: secret key coefficient %d out of ternary range", ErrFormat, v)
		}
		vec[i] = v
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	rg := ctx.R
	limbs := rg.Limbs(ctx.Params.MaxLevel(), true)
	s := rg.NewPoly(ctx.Params.MaxLevel())
	rg.SetCoeffsInt64(limbs, vec, s)
	rg.NTT(limbs, s)
	return &SecretKey{S: s, Vec: vec}, nil
}

// KeyBundle is the client-registered evaluation-key material: everything
// the server needs to run the lowered op graph on a client's ciphertexts
// and nothing that would let it decrypt them. ParamsDigest binds the
// bundle to the exact CKKS instantiation the keys were generated under.
type KeyBundle struct {
	ParamsDigest [32]byte
	PK           *PublicKey
	RLK          *RelinearizationKey
	RTK          *RotationKeySet
}

// WriteKeyBundle serializes b as the versioned bundle envelope.
func (ctx *Context) WriteKeyBundle(w io.Writer, b *KeyBundle) error {
	if b.PK == nil || b.RLK == nil || b.RTK == nil {
		return fmt.Errorf("ckks: key bundle requires public, relinearization and rotation keys")
	}
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagKeyBundle, formatVersion}); err != nil {
		return err
	}
	if _, err := cw.Write(b.ParamsDigest[:]); err != nil {
		return err
	}
	if err := ctx.WritePublicKey(cw, b.PK); err != nil {
		return err
	}
	if err := ctx.WriteRelinearizationKey(cw, b.RLK); err != nil {
		return err
	}
	if err := ctx.WriteRotationKeySet(cw, b.RTK); err != nil {
		return err
	}
	return cw.writeSum()
}

// ReadKeyBundle deserializes a bundle envelope. The params digest is
// checked as soon as it is read: a bundle generated under other
// Parameters is ErrParamsMismatch — a compatibility error, not a format
// error — before any key body, whose shape those Parameters fix, is
// parsed.
func (ctx *Context) ReadKeyBundle(r io.Reader) (*KeyBundle, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagKeyBundle, "key bundle"); err != nil {
		return nil, err
	}
	b := &KeyBundle{}
	if _, err := io.ReadFull(cr, b.ParamsDigest[:]); err != nil {
		return nil, badFormat(err)
	}
	if b.ParamsDigest != ctx.Params.ParamsDigest() {
		return nil, fmt.Errorf("%w: bundle params digest %x, context %s",
			ErrParamsMismatch, b.ParamsDigest[:8], ctx.Params.Fingerprint()[:16])
	}
	var err error
	if b.PK, err = ctx.ReadPublicKey(cr); err != nil {
		return nil, err
	}
	if b.RLK, err = ctx.ReadRelinearizationKey(cr); err != nil {
		return nil, err
	}
	if b.RTK, err = ctx.ReadRotationKeySet(cr); err != nil {
		return nil, err
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return b, nil
}

// ParamsDigest returns a 32-byte digest over every field of the CKKS
// instantiation that affects ciphertext and key compatibility: ring
// degree, moduli chain (values and special count), scale, key/error
// distributions, the ring seed (which fixes the NTT roots) and the
// key-switch digit layout (which fixes the switching keys' shape). The
// domain string changed when digits became limb groups, so bundles made
// under one-limb-per-digit keys no longer match.
func (p Parameters) ParamsDigest() [32]byte {
	h := sha256.New()
	h.Write([]byte("cnnhe-ckks-params-v2-digits"))
	u := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u(uint64(p.LogN))
	u(math.Float64bits(p.Scale))
	u(uint64(p.H))
	u(math.Float64bits(p.Sigma))
	u(uint64(p.RingSeed))
	u(uint64(p.Chain.SpecialCount))
	u(uint64(len(p.Chain.Moduli)))
	for _, q := range p.Chain.Moduli {
		b := q.Bytes()
		u(uint64(len(b)))
		h.Write(b)
	}
	digits := p.Digits(p.MaxLevel())
	u(uint64(len(digits)))
	for _, d := range digits {
		u(uint64(d[1] - d[0]))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// Fingerprint returns the hex form of ParamsDigest, the value exchanged
// over the wire (/v1/info) and embedded in registered key bundles.
func (p Parameters) Fingerprint() string {
	d := p.ParamsDigest()
	return hex.EncodeToString(d[:])
}

// BundleFingerprint is the content address of a serialized key bundle:
// hex(SHA-256(bytes)). Client and server compute it independently from
// the same bytes, so registration needs no server-assigned identifier.
func BundleFingerprint(data []byte) string {
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// Wire-size accounting. Exact byte counts of the framed formats above,
// used to size HTTP body limits from the actual payloads instead of a
// guessed constant.

// polyWireSize is the writePoly footprint of a polynomial with limbCount
// limbs of N coefficients each.
func (ctx *Context) polyWireSize(limbCount int) int {
	return 8 + limbCount*(16+8*ctx.Params.N())
}

// CiphertextWireSize returns the exact serialized size of a ciphertext
// at the given level.
func (ctx *Context) CiphertextWireSize(level int) int {
	return 2 + 16 + 2*ctx.polyWireSize(level+1) + 4
}

// switchingKeyWireSize is the exact serialized size of one switching key
// (every top-level digit, all QP limbs).
func (ctx *Context) switchingKeyWireSize() int {
	digits := len(ctx.digits[ctx.Params.MaxLevel()])
	allLimbs := ctx.Params.MaxLevel() + 1 + ctx.Params.Chain.SpecialCount
	return 2 + 8 + digits*2*ctx.polyWireSize(allLimbs) + 4
}

// PublicKeyWireSize returns the exact serialized size of a public key.
func (ctx *Context) PublicKeyWireSize() int {
	allLimbs := ctx.Params.MaxLevel() + 1 + ctx.Params.Chain.SpecialCount
	return 2 + 2*ctx.polyWireSize(allLimbs) + 4
}

// KeyBundleWireSize returns the exact serialized size of a bundle
// carrying `rotations` rotation keys.
func (ctx *Context) KeyBundleWireSize(rotations int) int {
	swk := ctx.switchingKeyWireSize()
	rlk := 2 + swk + 4
	rtk := 2 + 8 + rotations*(8+swk) + 4
	return 2 + 32 + ctx.PublicKeyWireSize() + rlk + rtk + 4
}
