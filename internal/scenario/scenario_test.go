package scenario

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

func validSpec() Scenario {
	return Scenario{
		ID:     "t-delivery",
		Title:  "test",
		XLabel: "deadline",
		YLabel: "delivery",
		Base:   core.DefaultConfig(),
		Series: Axis{Param: "GroupSize", Values: []float64{1, 5}, LabelFormat: "g=%d"},
		X:      Axis{Param: ParamDeadline, Values: []float64{60, 600}},
		Measure: Measure{
			Kind: KindDeliveryCurve,
		},
	}
}

func TestParseSpecsSingleObject(t *testing.T) {
	data, err := json.Marshal(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].ID != "t-delivery" {
		t.Fatalf("parsed %+v", specs)
	}
}

func TestParseSpecsArray(t *testing.T) {
	a, b := validSpec(), validSpec()
	b.ID = "t-other"
	data, err := json.Marshal([]Scenario{a, b})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].ID != "t-other" {
		t.Fatalf("parsed %+v", specs)
	}
}

// TestParseSpecsRoundTrip: a spec survives Marshal → ParseSpecs with
// every field intact.
func TestParseSpecsRoundTrip(t *testing.T) {
	want := validSpec()
	want.Notes = []string{"a note"}
	want.LogX = true
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs[0], want) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", specs[0], want)
	}
}

// TestParseSpecsDefaultsBase: a spec that omits "base" gets the
// paper's default config, not the zero config.
func TestParseSpecsDefaultsBase(t *testing.T) {
	specs, err := ParseSpecs([]byte(`{
		"id": "t", "title": "t", "xLabel": "x", "yLabel": "y",
		"series": {"param": "GroupSize", "values": [1, 5]},
		"x": {"param": "deadline", "values": [60, 600]},
		"measure": {"kind": "delivery-curve"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Base != core.DefaultConfig() {
		t.Fatalf("base = %+v, want defaults", specs[0].Base)
	}
}

// TestParseSpecsMalformed: the malformed-spec corpus must fail loudly,
// each with a diagnostic naming the problem — never a silent skip or a
// zero-value spec.
func TestParseSpecsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		raw     string // overrides mutate when set
		wantErr string
	}{
		{
			name:    "unknown kind",
			mutate:  func(s *Scenario) { s.Measure.Kind = "histogram" },
			wantErr: "unknown measurement kind",
		},
		{
			name:    "empty series axis",
			mutate:  func(s *Scenario) { s.Series.Values = nil },
			wantErr: "delivery-curve needs a non-empty series axis",
		},
		{
			name:    "empty x axis",
			mutate:  func(s *Scenario) { s.X.Values = nil },
			wantErr: "needs a non-empty",
		},
		{
			name:    "missing id",
			mutate:  func(s *Scenario) { s.ID = "" },
			wantErr: "no id",
		},
		{
			name:    "wrong x param",
			mutate:  func(s *Scenario) { s.X.Param = "GroupSize" },
			wantErr: "delivery-curve needs",
		},
		{
			name: "NaN axis value",
			raw: `{"id": "t", "title": "t", "xLabel": "x", "yLabel": "y",
				"series": {"param": "GroupSize", "values": [1]},
				"x": {"param": "deadline", "values": ["NaN"]},
				"measure": {"kind": "delivery-curve"}}`,
			wantErr: "", // any loud failure is fine; JSON has no NaN literal
		},
		{
			name: "NaN measure frac",
			raw: `{"id": "t", "title": "t", "xLabel": "x", "yLabel": "y",
				"series": {"param": "Copies", "values": [1]},
				"x": {"param": "frac", "values": [0.1]},
				"measure": {"kind": "security-point", "seriesSaltStride": 10, "frac": "NaN"}}`,
			wantErr: "",
		},
		{
			name: "unknown field",
			raw: `{"id": "t", "title": "t", "xLabel": "x", "yLabel": "y", "bogus": 3,
				"series": {"param": "GroupSize", "values": [1]},
				"x": {"param": "deadline", "values": [60]},
				"measure": {"kind": "delivery-curve"}}`,
			wantErr: "unknown field",
		},
		{
			name:    "empty list",
			raw:     `[]`,
			wantErr: "no specs",
		},
		{
			name:    "not JSON",
			raw:     `kind: delivery-curve`,
			wantErr: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			if tc.raw != "" {
				data = []byte(tc.raw)
			} else {
				s := validSpec()
				tc.mutate(&s)
				var err error
				data, err = json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
			}
			_, err := ParseSpecs(data)
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseSpecsDuplicateID(t *testing.T) {
	data, err := json.Marshal([]Scenario{validSpec(), validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecs(data); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate ids accepted: %v", err)
	}
}

func TestValidateNaNAxisValue(t *testing.T) {
	s := validSpec()
	s.X.Values = []float64{60, nan()}
	if err := s.Validate(); err == nil {
		t.Fatal("NaN axis value accepted")
	}
	s = validSpec()
	s.Measure.Frac = nan()
	if err := s.Validate(); err == nil {
		t.Fatal("NaN measure frac accepted")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Seed: 1, Runs: 10, SecurityRuns: 10, TraceRuns: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{Runs: 0, SecurityRuns: 10, TraceRuns: 10},
		{Runs: 10, SecurityRuns: 10, TraceRuns: 10, Workers: -1},
		{Runs: 10, SecurityRuns: 10, TraceRuns: 10, FaultRate: 1},
		{Runs: 10, SecurityRuns: 10, TraceRuns: 10, FaultRate: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("options %+v accepted", bad)
		}
	}
}

// TestEngineCacheBitIdentity: the memo caches must not change results —
// every value a run memoized equals, bit for bit, a direct
// model.DeliveryRateMultiCopy or model.TraceableRate call on the same
// inputs, and the run actually hits the cache.
func TestEngineCacheBitIdentity(t *testing.T) {
	opt := Options{Seed: 1, Runs: 30, SecurityRuns: 30, TraceRuns: 5, Workers: 2}
	security := Scenario{
		ID: "t-security", Title: "test", XLabel: "frac", YLabel: "traceable",
		Base:    core.DefaultConfig(),
		Series:  Axis{Param: "Relays", Values: []float64{3, 5}, LabelFormat: "K=%d"},
		X:       Axis{Param: ParamFrac, Values: []float64{0.1, 0.3}},
		Measure: Measure{Kind: KindSecurityPoint, SeriesSaltStride: 100},
	}
	cached := NewEngine(opt)
	for _, spec := range []Scenario{validSpec(), security} {
		if _, err := cached.Run(&spec); err != nil {
			t.Fatal(err)
		}
	}

	values := 0
	for key, ent := range cached.delivery {
		copies := int(binary.LittleEndian.Uint64([]byte(key)))
		rates := make([]float64, len(key)/8-1)
		for i := range rates {
			rates[i] = math.Float64frombits(binary.LittleEndian.Uint64([]byte(key[8*(i+1):])))
		}
		for tb, v := range ent.vals {
			want, err := model.DeliveryRateMultiCopy(rates, copies, math.Float64frombits(tb))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("memoized delivery rate %x at deadline %v, direct call %x", math.Float64bits(v), math.Float64frombits(tb), math.Float64bits(want))
			}
			values++
		}
	}
	for key, v := range cached.traceable {
		want := model.TraceableRate(key.eta, math.Float64frombits(key.frac))
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("memoized traceable rate %x for %+v, direct call %x", math.Float64bits(v), key, math.Float64bits(want))
		}
		values++
	}
	if values == 0 || len(cached.traceable) == 0 {
		t.Fatalf("compared %d memoized values, %d of them traceable rates: the check is vacuous", values, len(cached.traceable))
	}
	// An evaluator holding values for two deadlines was found in the
	// memo for the second: the cached run hit the cache.
	hit := false
	for _, ent := range cached.delivery {
		hit = hit || len(ent.vals) > 1
	}
	if !hit {
		t.Fatalf("cached run never hit the cache: none of %d evaluators was reused", len(cached.delivery))
	}
}
