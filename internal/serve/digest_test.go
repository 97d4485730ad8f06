package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"exaclim/internal/archive"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// TestPointSeriesDigestAcrossCommits pins a 64-step archived
// PointSeries — range decode of FP64, FP32 and FP16 bands across chunk
// boundaries, then the point evaluation — to the bytes it produced at
// the commit before the three series loops and the evaluators were
// unified (digest computed at the parent commit).
func TestPointSeriesDigestAcrossCommits(t *testing.T) {
	const want = "494b78e1e04782989562a00bf1ecbc13af91fc0b606ce4ab9024a9e10813de84"
	const L, steps = 16, 80
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L,
		Members: 2, Scenarios: 2, Steps: steps, ChunkSteps: 24,
		Bands: []archive.Band{
			{Lo: 0, Hi: 4, Prec: tile.FP64},
			{Lo: 4, Hi: 10, Prec: tile.FP32},
			{Lo: 10, Hi: L, Prec: tile.FP16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	packed := make([]float64, sht.PackDim(L))
	for s := 0; s < 2; s++ {
		for m := 0; m < 2; m++ {
			for ts := 0; ts < steps; ts++ {
				for i := range packed {
					packed[i] = rng.NormFloat64() / float64(1+sht.PackDegree(i))
				}
				if err := w.AddPacked(m, s, ts, packed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.PointSeries(context.Background(), 1, 1, 37.25, -122.5, 9, 73)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range series {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(series) != 64 || got != want {
		t.Fatalf("%d-step PointSeries digest %s, want 64 steps and %s: decode or evaluation changed a bit", len(series), got, want)
	}
}

// TestFieldBodiesDigestAcrossCommits pins the four /v1/field bodies —
// JSON, JSON+gzip, f32 and f32+gzip — of one archived and one live field
// to the bytes the streaming writers sent at the commit before bodies
// were kept in the cache (digests computed at the parent commit). Each
// body must come out the same when it is encoded on a miss, when it is
// served kept on a hit, and when it is encoded again after the entry
// was evicted.
func TestFieldBodiesDigestAcrossCommits(t *testing.T) {
	want := map[[2]int][bodyForms]string{
		{1, 0}: { // archived: member 1, scenario 0, t 7
			"ae22efa5b810915fc52bf7c7a5ff88d98f25126ea89636fe14f20627a6d0638d",
			"a25f229a1392bba2f275386076df1a8abd3a921deee02a68c5c1c76eb0fe4991",
			"5258501198dc22780f8412d3681da41775ef3c2950f718544c18df59f89ed9ac",
			"b5fed5f114145b55fcc749b0d827ef95b60c42040d38fd6b644551b9324f6774",
		},
		{1, 1}: { // live: member 1, scenario 1, t 5
			"9c72e686bd15f0e917955595f66b164aa8293bd0ed6af93863afe13f385a9d6a",
			"fd75384b87fb5a7c485b055a2e776afed01ec89d3fde63c43b674143ced10c6d",
			"cb36802e85f69e6a66e2d56fb47c07d05dac093141e74241f8edcdd9f75db833",
			"a4495176b2b6c818a96e219b81fb1a5eb881b836024d99d9cd46baec6828015e",
		},
	}
	model := liveModel(t)
	const L, steps = fixL, 12
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L,
		Members: 2, Scenarios: 1, Steps: steps, ChunkSteps: 5,
		Bands: []archive.Band{
			{Lo: 0, Hi: 3, Prec: tile.FP64},
			{Lo: 3, Hi: 8, Prec: tile.FP32},
			{Lo: 8, Hi: L, Prec: tile.FP16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	packed := make([]float64, sht.PackDim(L))
	for m := 0; m < 2; m++ {
		for ts := 0; ts < steps; ts++ {
			for i := range packed {
				packed[i] = rng.NormFloat64() / float64(1+sht.PackDegree(i))
			}
			if err := w.AddPacked(m, 0, ts, packed); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, model, Config{LiveScenarios: 1, LiveSteps: 8, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, round := range []string{"miss", "hit", "re-fill"} {
		if round == "re-fill" {
			evictAll(s.cache)
		}
		for _, q := range []struct{ member, scenario, t int }{{1, 0, 7}, {1, 1, 5}} {
			for f := bodyJSON; f < bodyForms; f++ {
				body := serveForm(t, h, q.member, q.scenario, q.t, f)
				if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != want[[2]int{q.member, q.scenario}][f] {
					t.Errorf("%s: field %+v form %d: %d-byte body digest %s, want %s",
						round, q, f, len(body), got, want[[2]int{q.member, q.scenario}][f])
				}
			}
		}
	}
	if st := s.Stats(); st.FieldLoads != 2 || st.LiveLoads != 2 {
		t.Fatalf("%d field loads and %d live loads, want 2 of each (miss, then re-fill)", st.FieldLoads, st.LiveLoads)
	}
}

// TestSeriesBodiesDigestAcrossCommits pins the identity and gzip JSON
// bodies of /v1/point, /v1/points, /v1/box and /v1/stats to the bytes
// the streaming JSON writer sent at the commit before every /v1 body
// left through one buffered write (digests computed at the parent
// commit).
func TestSeriesBodiesDigestAcrossCommits(t *testing.T) {
	want := map[string][2]string{ // identity, gzip
		"/v1/point?member=1&scenario=0&lat=37.25&lon=-122.5&t0=2&t1=11": {
			"74c728101578fee168c5e0a249a43d32ef7696110ece5c8d6294cd8a126b1cae",
			"4a375678ceaca7b6b430567ccb2558a328622501880e009213633e4d5663d15b",
		},
		"/v1/points?member=0&scenario=1&lat=10,-45.5,80&lon=30,200,-7&t1=6": {
			"c6b75b45567361d32f995f248acbcf804906e8dc0fc913ba8207e7daf24069e2",
			"dc419288350b950000e19b10037a401f4714dcd4d23bfc2837ff388e1111aef7",
		},
		"/v1/box?member=1&scenario=1&lat0=-30&lat1=30&lon0=350&lon1=20&t0=1&t1=9": {
			"32b98ff51e404048037b2781f70741d2019ac6cd7dc4da491deefbf32b6659d0",
			"dfdd89e79b390768696f554eaa64c272e9eb9b89f91dbd32afd2aecea2aac28c",
		},
		"/v1/stats?scenario=1&t=7": {
			"05ac47dc3d0e277f70c03e3888aaeaf4570df60791c9695ff8506a6d7c5841cd",
			"bfe636086a28841fa300b21b6a3e895f67f0cbabca4dde3c1d301901f2863dde",
		},
	}
	const L, steps = fixL, 12
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L,
		Members: 2, Scenarios: 2, Steps: steps, ChunkSteps: 5,
		Bands: []archive.Band{
			{Lo: 0, Hi: 3, Prec: tile.FP64},
			{Lo: 3, Hi: 8, Prec: tile.FP32},
			{Lo: 8, Hi: L, Prec: tile.FP16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	packed := make([]float64, sht.PackDim(L))
	for sc := 0; sc < 2; sc++ {
		for m := 0; m < 2; m++ {
			for ts := 0; ts < steps; ts++ {
				for i := range packed {
					packed[i] = rng.NormFloat64() / float64(1+sht.PackDegree(i))
				}
				if err := w.AddPacked(m, sc, ts, packed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for url, digests := range want {
		for i, ae := range []string{"", "gzip"} {
			req := httptest.NewRequest("GET", url, nil)
			if ae != "" {
				req.Header.Set("Accept-Encoding", ae)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s (Accept-Encoding %q) -> %d: %s", url, ae, rec.Code, rec.Body.Bytes())
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())); got != digests[i] {
				t.Errorf("%s (Accept-Encoding %q): %d-byte body digest %s, want %s", url, ae, rec.Body.Len(), got, digests[i])
			}
		}
	}
}
