// Package crypto implements the block-sealing layer of the threat model
// (§III): "the content of the memory itself is considered encrypted and
// hence secure". The client seals every block before it crosses the
// insecure channel to server storage and opens it on return, so the
// adversary observes only addresses — never plaintext.
//
// Construction: AES-128-GCM from the standard library, one fused
// encrypt-and-authenticate pass per slot. A sealed slot is laid out as
//
//	[nonce 12 | ciphertext len(plain) | tag 16]
//
// and opening checks the 128-bit tag before any plaintext is released.
//
// Nonce uniqueness is by reservation, not chance. The 96-bit nonce is the
// deterministic construction of NIST SP 800-38D §8.2.1: a 48-bit fixed
// field drawn once per Sealer from crypto/rand, followed by a 48-bit
// big-endian invocation counter taken from one atomic sequence — one value
// per seal, whatever the payload length (GCM's own 32-bit block counter
// covers 64 GiB per nonce). Bounds: a Sealer seals at most 2⁴⁸ slots and
// then returns ErrNonceExhausted — the counter never wraps. Within one
// Sealer no nonce repeats, serially, under ReserveSeals or from concurrent
// goroutines. Two Sealers under one caller-supplied key (one per shard, one
// per restart over a sealed DataDir) can share a nonce only if their fixed
// fields collide: about n²/2⁴⁹ for n Sealers under the key.
//
// cipher.AEAD is stateless, so a Sealer is safe for concurrent use: every
// crypto worker seals and opens through the store's one Sealer.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	fixedSize = 6  // random per-Sealer nonce field
	nonceSize = 12 // fixed field ‖ 48-bit invocation counter
	tagSize   = 16
	// Overhead is the sealed-size expansion per block.
	Overhead = nonceSize + tagSize
	// maxSeals is the number of invocation-counter values: sequence
	// numbers are 0 … maxSeals-1.
	maxSeals = uint64(1) << 48
)

var (
	// ErrAuth reports a sealed slot whose tag does not verify: it was
	// modified, truncated, or sealed under another key. No plaintext is
	// released.
	ErrAuth = errors.New("crypto: authentication failed")
	// ErrNonceExhausted reports a Sealer that has used all 2⁴⁸ invocation
	// counter values; sealing on would repeat a nonce under the key.
	ErrNonceExhausted = errors.New("crypto: sealer nonce space exhausted")
)

// Sealer encrypts and authenticates block payloads. It implements the
// in-place oram.Sealer contract (SealedSize/SealTo/OpenTo) and is safe for
// concurrent use.
type Sealer struct {
	aead  cipher.AEAD
	fixed [fixedSize]byte // single crypto/rand read, at construction
	// seals counts the sequence numbers handed out: every seal takes its
	// invocation counter from it atomically (ReserveSeals), so no two seals
	// — serial, reserved or concurrent — use the same nonce under the key.
	seals atomic.Uint64
}

// NewSealer derives a sealer from a 32-byte master key. The nonce's fixed
// field is the only randomness drawn — one crypto/rand read per Sealer
// lifetime.
func NewSealer(master []byte) (*Sealer, error) {
	var fixed [fixedSize]byte
	if _, err := cryptorand.Read(fixed[:]); err != nil {
		return nil, fmt.Errorf("crypto: generating nonce field: %w", err)
	}
	return NewSealerWithPrefix(master, fixed)
}

// NewSealerWithPrefix is NewSealer with a caller-chosen fixed nonce field
// instead of a random one: two sealers with the same key and field produce
// identical ciphertext for identical seal sequences, which is what
// byte-identity tests of the parallel seal path compare. Production code
// must use NewSealer — reusing a field under one key repeats nonces.
func NewSealerWithPrefix(master []byte, fixed [fixedSize]byte) (*Sealer, error) {
	if len(master) != 32 {
		return nil, fmt.Errorf("crypto: master key must be 32 bytes, got %d", len(master))
	}
	key := gcmKey(master)
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	return &Sealer{aead: aead, fixed: fixed}, nil
}

// gcmKey is the AES-128 key for a master key: a labelled hash, so that
// every bit of the 32-byte master matters to it.
func gcmKey(master []byte) [16]byte {
	sum := sha256.Sum256(append([]byte("laoram-gcm-v1:"), master...))
	return [16]byte(sum[:16])
}

// NewRandomSealer generates a fresh master key from crypto/rand.
func NewRandomSealer() (*Sealer, error) {
	key := make([]byte, 32)
	if _, err := cryptorand.Read(key); err != nil {
		return nil, fmt.Errorf("crypto: generating key: %w", err)
	}
	return NewSealer(key)
}

// ReserveSeals atomically reserves count invocation counters and returns
// the first; seal i of the reservation passes first + i to SealSeqTo. This
// is the deterministic-fan-out primitive: a batch reserved up front and
// sealed by concurrent workers in any order produces ciphertext
// byte-identical to sealing the same batch serially in index order,
// because the nonce depends only on the index. A reservation that would
// pass 2⁴⁸ takes nothing and returns ErrNonceExhausted.
func (s *Sealer) ReserveSeals(count int) (first uint64, err error) {
	if count < 0 {
		return 0, fmt.Errorf("crypto: ReserveSeals count %d", count)
	}
	for {
		cur := s.seals.Load() // <= maxSeals: only the swap below moves it
		if uint64(count) > maxSeals-cur {
			return 0, ErrNonceExhausted
		}
		if s.seals.CompareAndSwap(cur, cur+uint64(count)) {
			return cur, nil
		}
	}
}

// SealedSize implements oram.Sealer.
func (s *Sealer) SealedSize(plain int) int { return plain + Overhead }

// SealTo encrypts plain into dst, laid out as [nonce | ciphertext | tag].
// dst must have length SealedSize(len(plain)) and must not overlap plain;
// on error it is left untouched. Allocation-free.
func (s *Sealer) SealTo(dst, plain []byte) error {
	if len(dst) != s.SealedSize(len(plain)) {
		return fmt.Errorf("crypto: SealTo dst len %d, want %d", len(dst), s.SealedSize(len(plain)))
	}
	seq, err := s.ReserveSeals(1)
	if err != nil {
		return err
	}
	s.sealAt(dst, plain, seq)
	return nil
}

// SealSeqTo is SealTo with an explicitly reserved sequence number (from
// ReserveSeals) instead of an inline reservation. The caller is
// responsible for never passing the same sequence twice, which holds by
// construction when each comes from its own slot of a reservation.
func (s *Sealer) SealSeqTo(dst, plain []byte, seq uint64) error {
	if len(dst) != s.SealedSize(len(plain)) {
		return fmt.Errorf("crypto: SealSeqTo dst len %d, want %d", len(dst), s.SealedSize(len(plain)))
	}
	if seq >= maxSeals {
		return ErrNonceExhausted
	}
	s.sealAt(dst, plain, seq)
	return nil
}

// sealAt writes [nonce | ciphertext | tag] into dst (already
// length-checked) under invocation counter seq < maxSeals.
func (s *Sealer) sealAt(dst, plain []byte, seq uint64) {
	nonce := dst[:nonceSize]
	copy(nonce, s.fixed[:])
	nonce[fixedSize], nonce[fixedSize+1] = byte(seq>>40), byte(seq>>32)
	binary.BigEndian.PutUint32(nonce[fixedSize+2:], uint32(seq))
	s.aead.Seal(nonce, nonce, plain, nil)
}

// OpenTo authenticates sealed and decrypts it into dst, which must have
// length len(sealed)-Overhead and must not overlap sealed. A tag mismatch
// returns ErrAuth with dst holding no plaintext. Allocation-free.
func (s *Sealer) OpenTo(dst, sealed []byte) error {
	if len(sealed) < Overhead {
		return fmt.Errorf("crypto: sealed blob too short (%d bytes): %w", len(sealed), ErrAuth)
	}
	if len(dst) != len(sealed)-Overhead {
		return fmt.Errorf("crypto: OpenTo dst len %d, want %d", len(dst), len(sealed)-Overhead)
	}
	if _, err := s.aead.Open(dst[:0], sealed[:nonceSize], sealed[nonceSize:], nil); err != nil {
		return ErrAuth
	}
	return nil
}

// Seal encrypts plain into a fresh slice laid out as
// [nonce | ciphertext | tag].
func (s *Sealer) Seal(plain []byte) ([]byte, error) {
	out := make([]byte, s.SealedSize(len(plain)))
	if err := s.SealTo(out, plain); err != nil {
		return nil, err
	}
	return out, nil
}

// Open authenticates and decrypts a sealed blob, returning a fresh
// plaintext slice.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, fmt.Errorf("crypto: sealed blob too short (%d bytes): %w", len(sealed), ErrAuth)
	}
	plain := make([]byte, len(sealed)-Overhead)
	if err := s.OpenTo(plain, sealed); err != nil {
		return nil, err
	}
	return plain, nil
}
