package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckHistogram verifies the cumulative-bucket invariants of one
// parsed histogram family: per series, ascending le bounds, monotone
// non-decreasing cumulative counts, a +Inf bucket, and _count equal to
// the +Inf bucket. It is the structural half of exposition verification
// (ParseText being the grammatical half), used by the obs and serve
// tests, cmd/exaclim's process tests and the benchmark's traced run.
func CheckHistogram(f *ParsedFamily) error {
	if f == nil {
		return fmt.Errorf("obs: nil histogram family")
	}
	if f.Type != typeHistogram {
		return fmt.Errorf("obs: family %q has type %q, want histogram", f.Name, f.Type)
	}
	type series struct {
		lastLe   float64
		lastCum  float64
		infCount float64
		count    float64
		hasInf   bool
	}
	byLabels := map[string]*series{}
	for _, s := range f.Samples {
		k := labelKey(s.Labels)
		sr := byLabels[k]
		if sr == nil {
			sr = &series{lastLe: math.Inf(-1)}
			byLabels[k] = sr
		}
		switch s.Name {
		case f.Name + "_bucket":
			le := s.Labels["le"]
			if le == "" {
				return fmt.Errorf("obs: %s: bucket sample without le label", f.Name)
			}
			bound := math.Inf(+1)
			if le == "+Inf" {
				sr.hasInf = true
				sr.infCount = s.Value
			} else {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("obs: %s: bad le %q", f.Name, le)
				}
			}
			if bound <= sr.lastLe {
				return fmt.Errorf("obs: %s{%s}: le %q not ascending", f.Name, k, le)
			}
			if s.Value < sr.lastCum {
				return fmt.Errorf("obs: %s{%s}: cumulative count %g < previous %g at le=%s",
					f.Name, k, s.Value, sr.lastCum, le)
			}
			if s.Exemplar != nil && s.Exemplar.Value > bound {
				return fmt.Errorf("obs: %s{%s}: exemplar value %g above bucket bound le=%s",
					f.Name, k, s.Exemplar.Value, le)
			}
			sr.lastLe, sr.lastCum = bound, s.Value
		case f.Name + "_count":
			sr.count = s.Value
		}
	}
	if len(byLabels) == 0 {
		return fmt.Errorf("obs: %s: histogram family has no series", f.Name)
	}
	for k, sr := range byLabels {
		if !sr.hasInf {
			return fmt.Errorf("obs: %s{%s}: missing +Inf bucket", f.Name, k)
		}
		if sr.count != sr.infCount {
			return fmt.Errorf("obs: %s{%s}: _count %g != +Inf bucket %g",
				f.Name, k, sr.count, sr.infCount)
		}
	}
	return nil
}

// HistogramQuantile estimates the q-quantile (0..1) of one series of a
// parsed histogram family, selecting the bucket samples whose labels
// include every pair in match (match must identify a single series —
// for the stage-duration family, {"stage": name}). It interpolates
// linearly within the winning bucket, Prometheus histogram_quantile
// style, and reports the highest finite bound when the quantile lands
// in the +Inf bucket. The obs and serve tests and cmd/exaclim's process
// tests use it to read per-stage p50/p99 from a /metrics scrape.
func HistogramQuantile(f *ParsedFamily, match map[string]string, q float64) (float64, error) {
	if f == nil || f.Type != typeHistogram {
		return 0, fmt.Errorf("obs: HistogramQuantile needs a histogram family")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("obs: quantile %g outside [0,1]", q)
	}
	type bkt struct{ le, cum float64 }
	var buckets []bkt
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		matched := true
		for k, v := range match {
			if s.Labels[k] != v {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		le := math.Inf(+1)
		if l := s.Labels["le"]; l != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(l, 64); err != nil {
				return 0, fmt.Errorf("obs: %s: bad le %q", f.Name, l)
			}
		}
		buckets = append(buckets, bkt{le: le, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, fmt.Errorf("obs: %s: no bucket series matches %v", f.Name, match)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, fmt.Errorf("obs: %s: series %v has no observations", f.Name, match)
	}
	rank := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, +1) {
				return prevLe, nil
			}
			if b.cum == prevCum {
				return b.le, nil
			}
			return prevLe + (b.le-prevLe)*(rank-prevCum)/(b.cum-prevCum), nil
		}
		prevLe, prevCum = b.le, b.cum
	}
	return prevLe, nil
}

// labelKey canonicalizes a sample's labels (minus le) into a series key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k, v := range labels {
		if k != "le" {
			keys = append(keys, k+"="+v)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
