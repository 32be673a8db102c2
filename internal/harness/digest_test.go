package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

type rendered interface{ Render() string }

// fig adapts an experiment to the digest table's one signature.
func fig[T rendered](f func(Scale, int64) (T, error)) func(Scale, int64) (rendered, error) {
	return func(sc Scale, seed int64) (rendered, error) { return f(sc, seed) }
}

// figureDigests pins the SHA-256 of what `laorambench -scale ci -seed 42`
// prints for each of the 20 experiments whose output is a function of the
// seed alone (no wall-clock column). Recorded at commit a5188bf, before the
// joint bin fetch and the open-addressed stash index landed: a PR that
// promises "figures byte-identical under seed 42" is held to it here, and one
// that means to move a figure re-records that line and says why.
var figureDigests = []struct {
	id     string
	run    func(Scale, int64) (rendered, error)
	sha256 string
}{
	{"fig2", fig(Fig2), "7b3d6644734336e519b8e67a4483ea73872b2ef405b71af66a3955c2646eb271"},
	{"fig7a", fig(Fig7a), "ad352d97c822caf37c34903b62e4739521c428ea3902c551154df7bacebb5aa9"},
	{"fig7b", fig(Fig7b), "249a5e462e0999cca5288fa2309e4a8a316d99b6400f9657ed2c83b90f495aa3"},
	{"fig7c", fig(Fig7c), "a2458a6b995b24f681cc688ab982f7b576bbbc9cc0341de1aee55a835cd8bc34"},
	{"fig7d", fig(Fig7d), "442eb423881e8f0ee0a2b01edc3ec454b8c2638b30e2c14c4367fa791529a05f"},
	{"fig7e", fig(Fig7e), "5594b9450c93c2ff27d6a2177c2e7a04ee05662eae18af5a47226618368982aa"},
	{"fig7f", fig(Fig7f), "5da11b965b739607771c81055da87f0d962ce964b48953e5242673a633931ff0"},
	{"fig8", fig(Fig8), "d96e232994e4175a34905f16417b0bdee1a11b67c9a9e2e6f5957cfde78c269e"},
	{"fig9", fig(Fig9), "737a71296d96246e8a0784ad4dd2ed15101f1e144cec3b19f14e9f01c91c37fc"},
	{"table1", func(sc Scale, _ int64) (rendered, error) { return Table1(sc, false) }, "6eee4e9a4a9ff26fceb3e69fd8062bdcbc754e9caeae0a978dc66d975b1a3866"},
	{"table2", fig(Table2), "d8cb9752098b966e743eed84997e1b951ce96e7496c9ce08aae0c26d08cdfc3e"},
	{"memneutral", fig(MemNeutral), "32f713333eacd4bea2c8adbeed759e2f19b6c86659be4358283dcdede0d173ca"},
	{"ring", fig(RingExp), "2cdffe3329713593eb32b12bbb3f8aebe975845bc583ef46a27521a127927847"},
	{"security", fig(Security), "408cc125db14240b151086ed2ff4d6a45f3e8b5479a04677bde116628562ff64"},
	{"abl-batch", fig(BatchSweep), "af8f643ac3e4315188d5872f571b92080ca7bbf0323d0eaf2b862992a0dcd9da"},
	{"abl-model", fig(ModelSweep), "5de1b83af160031cf4d6dd1b81e9effafd745c576c2a4fb4bb8dad34493e30c7"},
	{"abl-profile", fig(ProfileSweep), "8c9b8b59e676b73ce4d6339bf7faeb4c84205f2925649f6b5b3299e8551cff58"},
	{"abl-thresh", fig(ThreshSweep), "0ba2b22b5eb700ccf2b024c162e57378936f3da12f74bcff1236faa19313fbc1"},
	{"abl-window", fig(WindowSweep), "6f67ca36802c0121903cf3e443279cbb6479fd6cf73fa1184c61eb391098e641"},
	{"abl-z", fig(ZSweep), "a3dfac4a0641e20a8bf9d0d427b375efb2fed004220de10fcc685aa308649e81"},
}

// TestFigureDigests renders every deterministic experiment at CI scale under
// seed 42 and compares it with the pinned digest.
func TestFigureDigests(t *testing.T) {
	for _, f := range figureDigests {
		t.Run(f.id, func(t *testing.T) {
			res, err := f.run(CIScale(), 42)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Render()))
			if got := hex.EncodeToString(sum[:]); got != f.sha256 {
				t.Errorf("%s renders to sha256 %s, pinned %s:\n%s", f.id, got, f.sha256, res.Render())
			}
		})
	}
}
