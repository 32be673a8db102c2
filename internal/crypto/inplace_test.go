package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestSealMatchesStdlibGCM is the known-answer test for the documented
// layout: SealTo's output is the nonce — the Sealer's 6-byte fixed field
// followed by the 48-bit big-endian sequence number — followed by exactly
// what cipher.NewGCM(...).Seal produces under that nonce and the derived
// key.
func TestSealMatchesStdlibGCM(t *testing.T) {
	fixed := [fixedSize]byte{0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5}
	s, err := NewSealerWithPrefix(testKey(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	key := gcmKey(testKey())
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cipher.NewGCM(blk)
	if err != nil {
		t.Fatal(err)
	}
	// Start high enough that the counter's upper two bytes are in use.
	const start = uint64(0x0102_0304_0506)
	s.seals.Store(start)
	rng := rand.New(rand.NewSource(17))
	for i, n := range []int{0, 1, 128, 4096} {
		plain := make([]byte, n)
		rng.Read(plain)
		got := make([]byte, s.SealedSize(n))
		if err := s.SealTo(got, plain); err != nil {
			t.Fatal(err)
		}
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], start+uint64(i))
		nonce := append(fixed[:], seq[2:]...)
		want := ref.Seal(append([]byte(nil), nonce...), nonce, plain, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: SealTo diverges from cipher.NewGCM under nonce %x", n, nonce)
		}
	}
}

// TestSealToOpenToRoundTrip covers the in-place variants, including reuse
// of the same dst buffers across calls (the hot-path pattern).
func TestSealToOpenToRoundTrip(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	sealed := make([]byte, s.SealedSize(128))
	opened := make([]byte, 128)
	for trial := 0; trial < 32; trial++ {
		plain := bytes.Repeat([]byte{byte(trial)}, 128)
		if err := s.SealTo(sealed, plain); err != nil {
			t.Fatal(err)
		}
		if err := s.OpenTo(opened, sealed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opened, plain) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
	// Cross-API: SealTo output opens via Open, Seal output via OpenTo.
	plain := []byte("cross-api-payload-0123456789abcd")
	if err := s.SealTo(sealed[:s.SealedSize(len(plain))], plain); err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(sealed[:s.SealedSize(len(plain))])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("SealTo → Open mismatch")
	}
	blob, err := s.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenTo(opened[:len(plain)], blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened[:len(plain)], plain) {
		t.Fatal("Seal → OpenTo mismatch")
	}
}

func TestSealToSizeValidation(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SealTo(make([]byte, 10), make([]byte, 16)); err == nil {
		t.Error("undersized SealTo dst accepted")
	}
	if err := s.OpenTo(make([]byte, 3), make([]byte, Overhead+16)); err == nil {
		t.Error("wrong-size OpenTo dst accepted")
	}
	if err := s.OpenTo(make([]byte, 0), make([]byte, Overhead-1)); err == nil {
		t.Error("truncated blob accepted by OpenTo")
	}
}

// TestSealerNoncesUnique: counter-derived nonces never repeat within a Sealer.
func TestSealerNoncesUnique(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 32)
	seen := make(map[string]bool)
	buf := make([]byte, s.SealedSize(len(plain)))
	for i := 0; i < 1000; i++ {
		if err := s.SealTo(buf, plain); err != nil {
			t.Fatal(err)
		}
		nonce := string(buf[:nonceSize])
		if seen[nonce] {
			t.Fatalf("nonce repeated at seal %d", i)
		}
		seen[nonce] = true
	}
}

// TestQuickNoncesDistinct is the property behind nonce uniqueness by
// reservation: under one shared Sealer, plain SealTo calls, ReserveSeals
// batches sealed out of order through SealSeqTo, and eight goroutines doing
// both at once never produce the same nonce twice — a repeat under one key
// would void GCM's confidentiality and authentication both.
func TestQuickNoncesDistinct(t *testing.T) {
	f := func(seals, batch uint8, size uint16) bool {
		per := int(seals)%24 + 1
		res := int(batch)%6 + 1
		sz := int(size) % 300
		s, err := NewSealer(testKey())
		if err != nil {
			return false
		}
		plain := make([]byte, sz)
		// one interleaves SealTo with a reservation sealed last-first.
		one := func(out *[][]byte) bool {
			for k := 0; k < per; k++ {
				buf := make([]byte, s.SealedSize(sz))
				if err := s.SealTo(buf, plain); err != nil {
					return false
				}
				*out = append(*out, buf)
				first, err := s.ReserveSeals(res)
				if err != nil {
					return false
				}
				for i := res - 1; i >= 0; i-- {
					buf := make([]byte, s.SealedSize(sz))
					if err := s.SealSeqTo(buf, plain, first+uint64(i)); err != nil {
						return false
					}
					*out = append(*out, buf)
				}
			}
			return true
		}
		const goroutines = 8
		outs := make([][][]byte, goroutines+1)
		if !one(&outs[goroutines]) { // serial, before the fan-out
			return false
		}
		ok := make([]bool, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ok[g] = one(&outs[g])
			}(g)
		}
		wg.Wait()
		seen := make(map[[nonceSize]byte]bool)
		for g, out := range outs {
			if g < goroutines && !ok[g] {
				return false
			}
			if len(out) != per*(1+res) {
				return false
			}
			for _, sealed := range out {
				nonce := [nonceSize]byte(sealed[:nonceSize])
				if seen[nonce] {
					return false
				}
				seen[nonce] = true
				if err := s.OpenTo(make([]byte, sz), sealed); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNonceExhaustion: the last of the 2⁴⁸ sequence numbers seals; the
// next seal — inline, reserved or by explicit sequence — is a typed error
// that leaves the destination untouched, and the count does not move.
func TestNonceExhaustion(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	s.seals.Store(maxSeals - 1)
	plain := bytes.Repeat([]byte{0x11}, 64)
	last := make([]byte, s.SealedSize(len(plain)))
	if err := s.SealTo(last, plain); err != nil {
		t.Fatalf("seal with the last sequence number: %v", err)
	}
	if !bytes.Equal(last[fixedSize:nonceSize], bytes.Repeat([]byte{0xFF}, 6)) {
		t.Fatalf("last nonce counter = %x, want ffffffffffff", last[fixedSize:nonceSize])
	}
	if err := s.OpenTo(make([]byte, len(plain)), last); err != nil {
		t.Fatal(err)
	}
	marker := bytes.Repeat([]byte{0xEE}, len(last))
	for name, seal := range map[string]func(dst []byte) error{
		"SealTo":    func(dst []byte) error { return s.SealTo(dst, plain) },
		"SealSeqTo": func(dst []byte) error { return s.SealSeqTo(dst, plain, maxSeals) },
		"ReserveSeals": func([]byte) error {
			_, err := s.ReserveSeals(1)
			return err
		},
		"Seal": func([]byte) error {
			_, err := s.Seal(plain)
			return err
		},
	} {
		dst := append([]byte(nil), marker...)
		if err := seal(dst); !errors.Is(err, ErrNonceExhausted) {
			t.Errorf("%s past the last sequence number: err = %v, want ErrNonceExhausted", name, err)
		}
		if !bytes.Equal(dst, marker) {
			t.Errorf("%s wrote to its destination before failing", name)
		}
	}
	if got := s.seals.Load(); got != maxSeals {
		t.Errorf("sequence count moved to %d after exhaustion, want %d", got, maxSeals)
	}
	// A reservation larger than what is left takes nothing.
	s.seals.Store(maxSeals - 3)
	if _, err := s.ReserveSeals(4); !errors.Is(err, ErrNonceExhausted) {
		t.Errorf("oversized reservation: err = %v, want ErrNonceExhausted", err)
	}
	if first, err := s.ReserveSeals(3); err != nil || first != maxSeals-3 {
		t.Errorf("exact reservation = (%d, %v), want (%d, nil)", first, err, maxSeals-3)
	}
}

// TestSealOpenToAllocFree gates the in-place hot path at zero allocations
// for a DLRM row and an XLM-R row.
func TestSealOpenToAllocFree(t *testing.T) {
	s, err := NewSealer(testKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{128, 4096} {
		plain := bytes.Repeat([]byte{0x42}, size)
		sealed := make([]byte, s.SealedSize(len(plain)))
		opened := make([]byte, len(plain))
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.SealTo(sealed, plain); err != nil {
				t.Fatal(err)
			}
			if err := s.OpenTo(opened, sealed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d B: SealTo+OpenTo allocates %.1f objects/op, want 0", size, allocs)
		}
	}
}
