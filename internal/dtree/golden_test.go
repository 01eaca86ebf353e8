package dtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// tieHeavyData builds a seeded set that stresses tie handling in the exact
// scan. Features come in pairs: a low-cardinality column and a refinement of
// it (2v or 2v+1), so a split on the coarse column and the matching split on
// its refinement cut the same partition with mathematically equal gains,
// while each accumulates its prefix sums over tied samples in its own sort
// order. The targets are large integers (1e7–1e8) whose squares sum past
// 2^53, so that order decides the gains' last bits — and with them which of
// the pair wins. Any change to the permutation among tied values moves the
// model.
func tieHeavyData(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(13))
	card := []int{2, 3, 4, 5}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 2*len(card))
		for j, c := range card {
			v := rng.Intn(c)
			row[2*j] = float64(v)
			row[2*j+1] = float64(2*v + rng.Intn(2))
		}
		x[i] = row
		y[i] = float64(10_000_000 + 7_000_000*int(row[0]) + 3_000_000*int(row[4]) + rng.Intn(60_000_000))
	}
	return x, y
}

// goldenModelBytes trains the named model kind on (x, y) with the given
// worker count and returns its WriteModel envelope.
func goldenModelBytes(t *testing.T, kind string, x [][]float64, y []float64, workers int) []byte {
	t.Helper()
	var m Predictor
	var err error
	switch kind {
	case "exact":
		m, err = Train(x, y, Options{Workers: workers})
	case "hist256":
		m, err = Train(x, y, Options{Workers: workers, Bins: 256})
	case "forest30":
		m, err = TrainForest(x, y, ForestOptions{Trees: 30, Seed: 17, Workers: workers})
	case "refit":
		// Warm refit: a forest on the first two thirds of the rows, then a
		// rotating-subset refit on all of them.
		k := 2 * len(x) / 3
		fo := ForestOptions{Trees: 12, Seed: 17, Workers: workers}
		var prev *Forest
		if prev, err = TrainForest(x[:k], y[:k], fo); err == nil {
			fo.Seed = SubSeed(17, 1)
			m, _, err = RefitForest(prev, x, y, RefitOptions{ForestOptions: fo, Gen: 1})
		}
	default:
		t.Fatalf("unknown model kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrainBytes pins the SHA-256 of every trained model's serialized
// bytes — exact trees, histogram trees, forests and warm refits, on the
// design-space fixture and on a tie-heavy synthetic set — at two worker
// counts. Any change to split search that alters a threshold, a gain
// comparison or the summation order among tied samples moves a digest.
func TestGoldenTrainBytes(t *testing.T) {
	d := loadGolden(t)
	type set struct {
		name string
		x    [][]float64
		y    []float64
	}
	var sets []set
	for _, app := range d.Apps {
		y, err := d.Target(app)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set{"golden-" + app, d.X, y})
	}
	tx, ty := tieHeavyData(600)
	sets = append(sets, set{"ties", tx, ty})

	want := map[string]string{
		"golden-STREAM/exact":     "00a359068964210bde8b1428c17f4994db9236777d02688a748937a821a67cfb",
		"golden-STREAM/forest30":  "c7d89c3bb37759ea8e8268c002a449756210bcff4ee973458afaacc60bdd28bf",
		"golden-STREAM/hist256":   "48b5d98a86185d253835aa7c3e55007db1314731b6ba883354d7dc72d82d79ad",
		"golden-STREAM/refit":     "6ee3ecb393be3e37aa288cd4f8e2696ef82a21f13eb5a896df067338f0afc1b5",
		"golden-TeaLeaf/exact":    "8d00a36559d470e981d5bd90b3f3dcf4dacb70e9fd9acce5f8caf6abedbd4c78",
		"golden-TeaLeaf/forest30": "4e8b80e07ec6538fe8d37fc3863e87f7b68f250be087f6be7915ac4d9a8a9e41",
		"golden-TeaLeaf/hist256":  "437c6fc8a8d484b16bec48f22db1fc417a78e535ec2c6f269a6aa97b10e4d70c",
		"golden-TeaLeaf/refit":    "1d74302d408af136b21944e463473c9b25f702f027e0fc315728a831c2b9cbe5",
		"ties/exact":              "5ab821d440a005334a0e7e585caa7003076aa18da70d2535195c18c9d3dbcac5",
		"ties/forest30":           "bb7f79e37818640a7604036531506dd2f1ff10d3a643205839e9898dece3c71f",
		"ties/hist256":            "26a7de8f76766a6eee22d7822ba5ca9ce103ebbcccc0e9719ad945de543ae153",
		"ties/refit":              "5d60bc4095546102e2500ddf1fb631b2ff6cecab5af69abc59866c3e9efdcc4c",
	}
	for _, s := range sets {
		for _, kind := range []string{"exact", "hist256", "forest30", "refit"} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", s.name, kind, workers), func(t *testing.T) {
					sum := sha256.Sum256(goldenModelBytes(t, kind, s.x, s.y, workers))
					got := hex.EncodeToString(sum[:])
					key := s.name + "/" + kind
					if got != want[key] {
						t.Errorf("model sha256 = %s, want %s", got, want[key])
					}
				})
			}
		}
	}
}
