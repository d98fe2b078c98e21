package ckks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"cnnhe/internal/ring"
)

// Wire format: every object is framed as
//
//	[tag:1][version:1][payload][crc32:4]
//
// where the trailing CRC-32 (IEEE) covers tag, version and payload. The
// payload carries its structural metadata explicitly, so a decode
// against mismatched parameters fails loudly instead of corrupting
// data; the checksum catches truncation and bit flips that structural
// validation alone cannot (for example a flipped coefficient word or
// scale bit). Limb coefficient vectors are written as raw little-endian
// uint64 words.

const (
	tagCiphertext byte = 0xC7
	tagPublicKey  byte = 0xB0
	tagSwitchKey  byte = 0x5E

	// formatVersion is bumped on any incompatible wire-format change.
	formatVersion byte = 1
)

// Typed deserialization failures; match with errors.Is.
var (
	// ErrFormat: the blob is structurally invalid — wrong tag, unsupported
	// version, out-of-range metadata, or truncated.
	ErrFormat = errors.New("ckks: malformed serialized object")
	// ErrChecksum: the blob parsed but its CRC-32 does not match (bit
	// corruption in transit or at rest).
	ErrChecksum = errors.New("ckks: checksum mismatch")
	// ErrParamsMismatch: a key bundle carries the digest of other
	// Parameters (Parameters.ParamsDigest) than the reading Context's.
	ErrParamsMismatch = errors.New("ckks: parameter mismatch")
)

// badFormat wraps a low-level decode error as ErrFormat.
func badFormat(err error) error {
	if errors.Is(err, ErrFormat) || errors.Is(err, ErrChecksum) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrFormat, err)
}

// crcWriter tees writes into a running CRC-32.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, crc: crc32.NewIEEE()}
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

// writeSum appends the frame's checksum (not itself checksummed).
func (cw *crcWriter) writeSum() error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], cw.crc.Sum32())
	_, err := cw.w.Write(buf[:])
	return err
}

// crcReader tees reads into a running CRC-32.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.NewIEEE()}
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// verifySum consumes the frame's trailing checksum and compares.
func (cr *crcReader) verifySum() error {
	var buf [4]byte
	if _, err := io.ReadFull(cr.r, buf[:]); err != nil {
		return badFormat(err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != cr.crc.Sum32() {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, cr.crc.Sum32())
	}
	return nil
}

// readHeader consumes and validates the [tag][version] prefix. An
// immediate clean EOF is passed through so callers can detect stream
// end; anything else malformed is ErrFormat.
func readHeader(r io.Reader, wantTag byte, what string) error {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return err
		}
		return badFormat(err)
	}
	if hdr[0] != wantTag {
		return fmt.Errorf("%w: bad %s tag 0x%02x", ErrFormat, what, hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return badFormat(err)
	}
	if hdr[1] != formatVersion {
		return fmt.Errorf("%w: unsupported %s format version %d (want %d)", ErrFormat, what, hdr[1], formatVersion)
	}
	return nil
}

func writeUint64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readUint64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, badFormat(err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// writePoly writes the given limbs of p.
func writePoly(w io.Writer, rg *ring.Ring, limbs []int, p *ring.Poly) error {
	if err := writeUint64(w, uint64(len(limbs))); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, li := range limbs {
		if err := writeUint64(w, uint64(li)); err != nil {
			return err
		}
		coeffs := p.Coeffs[li]
		if err := writeUint64(w, uint64(len(coeffs))); err != nil {
			return err
		}
		for _, c := range coeffs {
			binary.LittleEndian.PutUint64(buf, c)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// readPoly reads a polynomial carrying exactly the given limbs, each once
// and in any order, and allocates only those. A missing, extra, repeated
// or foreign limb is ErrFormat, even under a valid checksum.
func readPoly(r io.Reader, rg *ring.Ring, limbs []int) (*ring.Poly, error) {
	nLimbs, err := readUint64(r)
	if err != nil {
		return nil, err
	}
	if nLimbs != uint64(len(limbs)) {
		return nil, fmt.Errorf("%w: polynomial has %d limbs, want %d", ErrFormat, nLimbs, len(limbs))
	}
	want := make([]bool, len(rg.SubRings))
	for _, li := range limbs {
		want[li] = true
	}
	p := &ring.Poly{Coeffs: make([][]uint64, len(rg.SubRings))}
	for range limbs {
		li, err := readUint64(r)
		if err != nil {
			return nil, err
		}
		if li >= uint64(len(want)) || !want[li] { // unsigned: int(li) wraps negative past 2^63
			return nil, fmt.Errorf("%w: limb index %d not expected", ErrFormat, li)
		}
		if p.Coeffs[li] != nil {
			return nil, fmt.Errorf("%w: limb %d repeated", ErrFormat, li)
		}
		n, err := readUint64(r)
		if err != nil {
			return nil, err
		}
		if size := uint64(rg.N() * rg.SubRings[li].Width()); n != size {
			return nil, fmt.Errorf("%w: limb %d length %d, want %d", ErrFormat, li, n, size)
		}
		buf := make([]byte, 8*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, badFormat(err)
		}
		p.Coeffs[li] = make([]uint64, n)
		for j := range p.Coeffs[li] {
			p.Coeffs[li][j] = binary.LittleEndian.Uint64(buf[8*j:])
		}
	}
	return p, nil
}

// WriteCiphertext serializes ct.
func (ctx *Context) WriteCiphertext(w io.Writer, ct *Ciphertext) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagCiphertext, formatVersion}); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(ct.Level)); err != nil {
		return err
	}
	if err := writeUint64(cw, math.Float64bits(ct.Scale)); err != nil {
		return err
	}
	limbs := ctx.R.Limbs(ct.Level, false)
	if err := writePoly(cw, ctx.R, limbs, ct.C0); err != nil {
		return err
	}
	if err := writePoly(cw, ctx.R, limbs, ct.C1); err != nil {
		return err
	}
	return cw.writeSum()
}

// ReadCiphertext deserializes a ciphertext produced by WriteCiphertext
// under the same parameters. Malformed input yields ErrFormat, bit
// corruption ErrChecksum.
func (ctx *Context) ReadCiphertext(r io.Reader) (*Ciphertext, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagCiphertext, "ciphertext"); err != nil {
		return nil, err
	}
	level64, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	level := int(level64)
	if level < 0 || level > ctx.Params.MaxLevel() {
		return nil, fmt.Errorf("%w: level %d out of range", ErrFormat, level)
	}
	scaleBits, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	limbs := ctx.R.Limbs(level, false)
	c0, err := readPoly(cr, ctx.R, limbs)
	if err != nil {
		return nil, err
	}
	c1, err := readPoly(cr, ctx.R, limbs)
	if err != nil {
		return nil, err
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return &Ciphertext{C0: c0, C1: c1, Level: level, Scale: math.Float64frombits(scaleBits)}, nil
}

// WritePublicKey serializes pk.
func (ctx *Context) WritePublicKey(w io.Writer, pk *PublicKey) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagPublicKey, formatVersion}); err != nil {
		return err
	}
	limbs := ctx.R.Limbs(ctx.Params.MaxLevel(), true)
	if err := writePoly(cw, ctx.R, limbs, pk.B); err != nil {
		return err
	}
	if err := writePoly(cw, ctx.R, limbs, pk.A); err != nil {
		return err
	}
	return cw.writeSum()
}

// ReadPublicKey deserializes a public key.
func (ctx *Context) ReadPublicKey(r io.Reader) (*PublicKey, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagPublicKey, "public key"); err != nil {
		return nil, err
	}
	limbs := ctx.R.Limbs(ctx.Params.MaxLevel(), true)
	b, err := readPoly(cr, ctx.R, limbs)
	if err != nil {
		return nil, err
	}
	a, err := readPoly(cr, ctx.R, limbs)
	if err != nil {
		return nil, err
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return &PublicKey{B: b, A: a}, nil
}

// WriteSwitchingKey serializes a switching key (relinearization or
// rotation key material).
func (ctx *Context) WriteSwitchingKey(w io.Writer, swk *SwitchingKey) error {
	cw := newCRCWriter(w)
	if _, err := cw.Write([]byte{tagSwitchKey, formatVersion}); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(len(swk.B))); err != nil {
		return err
	}
	limbs := ctx.R.Limbs(ctx.Params.MaxLevel(), true)
	for i := range swk.B {
		if err := writePoly(cw, ctx.R, limbs, swk.B[i]); err != nil {
			return err
		}
		if err := writePoly(cw, ctx.R, limbs, swk.A[i]); err != nil {
			return err
		}
	}
	return cw.writeSum()
}

// ReadSwitchingKey deserializes a switching key. A key carries exactly
// one (b, a) pair per top-level key-switch digit (Parameters.Digits, as
// key generation produces): key switching slices the digits live at the op's
// level, so a shorter key would pass registration and fail only at
// evaluation.
func (ctx *Context) ReadSwitchingKey(r io.Reader) (*SwitchingKey, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagSwitchKey, "switching key"); err != nil {
		return nil, err
	}
	n, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	if want := len(ctx.digits[ctx.Params.MaxLevel()]); n != uint64(want) {
		return nil, fmt.Errorf("%w: switching key has %d digits, want %d", ErrFormat, n, want)
	}
	limbs := ctx.R.Limbs(ctx.Params.MaxLevel(), true)
	swk := &SwitchingKey{}
	for i := uint64(0); i < n; i++ {
		b, err := readPoly(cr, ctx.R, limbs)
		if err != nil {
			return nil, err
		}
		a, err := readPoly(cr, ctx.R, limbs)
		if err != nil {
			return nil, err
		}
		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
	}
	if err := cr.verifySum(); err != nil {
		return nil, err
	}
	return swk, nil
}
