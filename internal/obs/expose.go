package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Prometheus text exposition content type.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every registered family in the Prometheus text
// exposition format, families and labeled children in sorted order so
// the output is deterministic for a fixed metric state. Samples are
// collected under each family's read lock, but all formatting and the
// writes to w happen with no locks held — a stalled scrape client never
// blocks recording or registration.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.fn()))
			continue
		}
		for _, ch := range f.sortedChildren() {
			f.writeChild(bw, ch)
		}
	}
	return bw.Flush()
}

// sortedChildren snapshots a family's children ordered by label values.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	kids := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		kids = append(kids, ch)
	}
	f.mu.RUnlock()
	sort.Slice(kids, func(i, j int) bool {
		return joinValues(kids[i].values) < joinValues(kids[j].values)
	})
	return kids
}

// writeChild renders one labeled (or unlabeled) series.
func (f *family) writeChild(w io.Writer, ch *child) {
	switch f.typ {
	case typeCounter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, ch.values, "", ""), ch.c.Value())
	case typeGauge:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, ch.values, "", ""), ch.g.Value())
	case typeHistogram:
		cum, sum := ch.h.snapshot()
		for i, ub := range f.buckets {
			fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
				labelString(f.labels, ch.values, "le", formatFloat(ub)), cum[i],
				exemplarSuffix(ch.h, i))
		}
		total := cum[len(cum)-1]
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
			labelString(f.labels, ch.values, "le", "+Inf"), total,
			exemplarSuffix(ch.h, len(f.buckets)))
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelString(f.labels, ch.values, "", ""), formatFloat(sum))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			labelString(f.labels, ch.values, "", ""), total)
	}
}

// exemplarSuffix renders the OpenMetrics-style exemplar annotation for
// bucket i, or "" when none has been recorded. The Prometheus text
// parser treats everything after '#' as a comment, so exemplar-carrying
// expositions stay readable by plain 0.0.4 scrapers.
func exemplarSuffix(h *Histogram, i int) string {
	if h.exemplars == nil {
		return ""
	}
	ex := h.exemplars[i].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", escapeLabel(ex.TraceID), formatFloat(ex.Value))
}

// labelString renders {k="v",...}, appending the extra pair (the
// histogram "le" bound) when set; it returns "" for no labels at all.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes help text (backslash and newline only).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a sample value: shortest round-trip form, +Inf
// spelled the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry's exposition —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		r.WriteText(w)
	})
}

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name, including _bucket/_sum/_count
	// suffixes on histogram series.
	Name   string
	Labels map[string]string
	Value  float64
	// Exemplar carries the parsed `# {labels} value` annotation when the
	// line has one (histogram bucket lines with a recorded exemplar).
	Exemplar *SampleExemplar
}

// SampleExemplar is one parsed exemplar annotation.
type SampleExemplar struct {
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family of a parsed exposition.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText parses Prometheus text exposition output into families,
// validating the grammar strictly enough for its callers — the obs and
// serve tests, cmd/exaclim's process tests and the benchmark's traced
// run: every sample must follow a TYPE line for its family, sample
// names must match the declared family (modulo histogram suffixes),
// and values must parse. It is the verification half of WriteText, not
// a general scrape client.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	var cur *ParsedFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			f := fams[name]
			if f == nil {
				f = &ParsedFamily{Name: name}
				fams[name] = f
			}
			f.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, typ)
			}
			f := fams[name]
			if f == nil {
				f = &ParsedFamily{Name: name}
				fams[name] = f
			}
			if f.Type != "" {
				return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", lineNo, name)
			}
			f.Type = typ
			cur = f
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleBelongsTo(s.Name, cur) {
			return nil, fmt.Errorf("obs: line %d: sample %q outside its family's TYPE block", lineNo, s.Name)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("obs: family %q has samples but no TYPE line", name)
		}
		if !nameRE.MatchString(name) {
			return nil, fmt.Errorf("obs: invalid family name %q", name)
		}
	}
	return fams, nil
}

// sampleBelongsTo reports whether a sample name belongs to family f
// (exact match, or the histogram suffix series).
func sampleBelongsTo(name string, f *ParsedFamily) bool {
	if name == f.Name {
		return true
	}
	if f.Type != typeHistogram {
		return false
	}
	return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
}

// parseSample parses `name{k="v",...} value`, with an optional
// OpenMetrics-style `# {k="v",...} value` exemplar annotation after the
// sample value.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		s.Name = rest[:brace]
		// The label set ends at the first *unquoted* '}': a byte scan
		// from the right would trip over the braces of an exemplar
		// annotation (and '}' inside quoted label values).
		end := labelSetEnd(rest, brace)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[brace+1:end], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		s.Name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return s, fmt.Errorf("sample %q has no value", line)
		}
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = strings.TrimSpace(rest)
	var exPart string
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		exPart = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimSpace(rest[:i])
	}
	valStr := strings.Fields(rest)
	if len(valStr) < 1 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(valStr[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", valStr[0], err)
	}
	s.Value = v
	if exPart != "" {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Exemplar = ex
	}
	return s, nil
}

// parseExemplar parses the `{k="v",...} value` tail of an exemplar
// annotation.
func parseExemplar(in string) (*SampleExemplar, error) {
	if in == "" || in[0] != '{' {
		return nil, fmt.Errorf("malformed exemplar %q", in)
	}
	end := labelSetEnd(in, 0)
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set in %q", in)
	}
	ex := &SampleExemplar{Labels: map[string]string{}}
	if err := parseLabels(in[1:end], ex.Labels); err != nil {
		return nil, err
	}
	fields := strings.Fields(strings.TrimSpace(in[end+1:]))
	if len(fields) < 1 {
		return nil, fmt.Errorf("exemplar %q has no value", in)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q: %w", fields[0], err)
	}
	ex.Value = v
	return ex, nil
}

// labelSetEnd returns the index of the '}' closing the label set opened
// at s[brace], skipping quoted values (and escapes inside them), or -1.
func labelSetEnd(s string, brace int) int {
	inQuote := false
	for i := brace + 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

// parseLabels parses k="v",k2="v2" (escaped values unescaped).
func parseLabels(in string, out map[string]string) error {
	for in != "" {
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", in)
		}
		k := strings.TrimSpace(in[:eq])
		if !labelRE.MatchString(k) {
			return fmt.Errorf("invalid label name %q", k)
		}
		rest := in[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", k)
		}
		rest = rest[1:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return fmt.Errorf("unterminated label value for %q", k)
		}
		out[k] = b.String()
		in = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		in = strings.TrimSpace(in)
	}
	return nil
}
