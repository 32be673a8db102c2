package crypto

import (
	"bytes"
	"errors"
	"testing"
)

func testKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i * 7)
	}
	return k
}

func TestSealerRoundTrip(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{0x42}, 128)
	sealed, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != s.SealedSize(len(plain)) {
		t.Errorf("sealed size %d, want %d", len(sealed), s.SealedSize(len(plain)))
	}
	got, err := s.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("round trip mismatch")
	}
}

func TestSealerHidesPlaintext(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("categorical-user-data-0123456789")
	sealed, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, plain[:8]) {
		t.Error("plaintext prefix visible in ciphertext")
	}
}

func TestSealerFreshNonces(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{7}, 64)
	a, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("sealing the same plaintext twice produced identical ciphertext")
	}
}

func TestSealerTamperDetection(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := s.Seal(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	// Nonce fixed field, nonce counter, ciphertext, tag.
	for _, pos := range []int{0, nonceSize - 1, nonceSize + 1, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 0x80
		if _, err := s.Open(tampered); !errors.Is(err, ErrAuth) {
			t.Errorf("tampering at byte %d: err = %v, want ErrAuth", pos, err)
		}
	}
	if _, err := s.Open(sealed[:Overhead-1]); !errors.Is(err, ErrAuth) {
		t.Errorf("truncated blob: err = %v, want ErrAuth", err)
	}
}

// TestSealerWrongKeyFails: a key differing in any one byte of the 32 —
// the half AES-128 would not see included — fails authentication.
func TestSealerWrongKeyFails(t *testing.T) {
	s1, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := s1.Seal(bytes.Repeat([]byte{9}, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 15, 16, 31} {
		k2 := testKey()
		k2[pos] ^= 1
		s2, err := NewSealer(k2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Open(sealed); !errors.Is(err, ErrAuth) {
			t.Errorf("key differing at byte %d: err = %v, want ErrAuth", pos, err)
		}
	}
}

func TestSealerKeyValidation(t *testing.T) {
	if _, err := NewSealer(make([]byte, 16)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewSealer(nil); err == nil {
		t.Error("nil key accepted")
	}
}

func TestNewRandomSealer(t *testing.T) {
	s, err := NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("abcd")
	sealed, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("random sealer round trip failed")
	}
}

func TestSealerEmptyPayload(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := s.Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty payload round trip = %v", got)
	}
}
