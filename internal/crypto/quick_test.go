package crypto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSealOpenRoundTrip: arbitrary payloads round-trip and ciphertext
// never embeds long plaintext runs.
func TestQuickSealOpenRoundTrip(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	f := func(plain []byte) bool {
		sealed, err := s.Seal(plain)
		if err != nil {
			return false
		}
		if len(sealed) != len(plain)+Overhead {
			return false
		}
		got, err := s.Open(sealed)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, plain) {
			return false
		}
		// Any 16-byte plaintext window must not appear verbatim in the
		// ciphertext body (probability of a false positive is negligible).
		if len(plain) >= 16 && bytes.Contains(sealed, plain[:16]) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickTamperAnyByte: flipping any single bit anywhere in the sealed
// blob — nonce, ciphertext or tag — must fail authentication with ErrAuth
// and release no plaintext.
func TestQuickTamperAnyByte(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{0x5C}, 96)
	sealed, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	f := func(posRaw uint16, bitRaw uint8) bool {
		pos := int(posRaw) % len(sealed)
		bit := bitRaw % 8
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 1 << bit
		got := bytes.Repeat([]byte{0xEE}, len(plain))
		err := s.OpenTo(got, tampered)
		return errors.Is(err, ErrAuth) && !bytes.Equal(got, plain)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCrossPayloadIndependence: ciphertexts of different payloads
// under the same key never collide.
func TestQuickCrossPayloadIndependence(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	f := func(plain []byte) bool {
		sealed, err := s.Seal(plain)
		if err != nil {
			return false
		}
		k := string(sealed)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(33))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
