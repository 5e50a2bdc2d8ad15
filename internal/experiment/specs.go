package experiment

import (
	"repro/internal/core"
	"repro/internal/scenario"
)

// Axis value tables shared by several specs (Table II sweeps).
func oneToTen() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

// figureSpecs is the declarative table behind Figs. 4-19: every figure
// is a base config, one or two axes, and a measurement kind. The
// trace figures (14-19) run on the synthetic Cambridge (12 nodes,
// g=10) and Infocom 2005 (41 nodes, g=5) populations with K=3.
func figureSpecs() []scenario.Scenario {
	fracLabels := []string{"c/n=10%", "c/n=20%", "c/n=30%"}
	fracValues := []float64{0.1, 0.2, 0.3}

	cambridge := core.DefaultConfig()
	cambridge.Nodes, cambridge.GroupSize = 12, 10
	infocom := core.DefaultConfig()
	infocom.Nodes, infocom.GroupSize = 41, 5

	var infocomDeadlines []float64
	for t := 16.0; t <= 65536; t *= 2 {
		infocomDeadlines = append(infocomDeadlines, t)
	}

	return []scenario.Scenario{
		{
			ID: "fig04", Title: "Delivery rate w.r.t. deadline (group size)",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "group size", Param: "GroupSize", Values: []float64{1, 5, 10}, LabelFormat: "g=%d"},
			X:       scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline, Values: scenario.DeliveryDeadlines()},
			Measure: scenario.Measure{Kind: scenario.KindDeliveryCurve},
		},
		{
			ID: "fig05", Title: "Delivery rate w.r.t. deadline (number of onion routers)",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "onion routers", Param: "Relays", Values: []float64{3, 5, 10}, LabelFormat: "%d onions"},
			X:       scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline, Values: scenario.DeliveryDeadlines()},
			Measure: scenario.Measure{Kind: scenario.KindDeliveryCurve},
		},
		{
			ID: "fig06", Title: "Traceable rate w.r.t. compromised rate",
			XLabel: "Compromised rate (c/n)", YLabel: "Traceable rate",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "onion routers", Param: "Relays", Values: []float64{3, 5, 10}, LabelFormat: "%d onions"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindSecurityPoint, SeriesSaltStride: 100},
		},
		{
			ID: "fig07", Title: "Traceable rate w.r.t. number of onion relays",
			XLabel: "Number of onion relays (K)", YLabel: "Traceable rate",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: fracValues, Labels: fracLabels},
			X:       scenario.Axis{Name: "onion relays", Param: "Relays", Values: oneToTen()},
			Measure: scenario.Measure{Kind: scenario.KindSecurityPoint, SeriesSaltStride: 100},
		},
		{
			ID: "fig08", Title: "Path anonymity w.r.t. compromised rate (group size)",
			XLabel: "Compromised rate (c/n)", YLabel: "Path anonymity",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "group size", Param: "GroupSize", Values: []float64{1, 5, 10}, LabelFormat: "g=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, SeriesSaltStride: 1000},
		},
		{
			ID: "fig09", Title: "Path anonymity w.r.t. group size",
			XLabel: "Group size (g)", YLabel: "Path anonymity",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: fracValues, Labels: fracLabels},
			X:       scenario.Axis{Name: "group size", Param: "GroupSize", Values: oneToTen()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, SeriesSaltStride: 1000},
		},
		{
			ID: "fig10", Title: "Delivery rate w.r.t. deadline (number of copies, g=5)",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 3, 5}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline, Values: scenario.DeliveryDeadlines()},
			Measure: scenario.Measure{Kind: scenario.KindDeliveryCurve},
		},
		{
			ID: "fig11", Title: "Message transmission cost w.r.t. number of copies",
			XLabel: "Number of copies (L)", YLabel: "Number of transmissions",
			Base:    core.DefaultConfig(),
			X:       scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 2, 3, 4, 5}},
			Measure: scenario.Measure{Kind: scenario.KindCost, Deadline: 1800},
		},
		{
			ID: "fig12", Title: "Path anonymity w.r.t. compromised rate (copies, g=5)",
			XLabel: "Compromised rate (c/n)", YLabel: "Path anonymity",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 3, 5}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, SeriesSaltStride: 10000},
		},
		{
			ID: "fig13", Title: "Path anonymity w.r.t. group size (copies, c/n=10%)",
			XLabel: "Group size (g)", YLabel: "Path anonymity",
			Base:    core.DefaultConfig(),
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 3}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "group size", Param: "GroupSize", Values: oneToTen()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, Frac: 0.1, SeriesSaltStride: 100000},
		},
		{
			ID: "fig14", Title: "Delivery rate w.r.t. deadline (Cambridge trace)",
			XLabel: "Deadline (seconds)", YLabel: "Delivery rate",
			Notes:  []string{"synthetic Cambridge-like trace (see DESIGN.md substitution table)"},
			Base:   cambridge,
			Series: scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1}, LabelFormat: "L=%d"},
			X: scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline,
				Values: []float64{180, 360, 540, 720, 900, 1080, 1260, 1440, 1620, 1800}},
			Measure: scenario.Measure{Kind: scenario.KindTraceReplay, Trace: scenario.TraceCambridge},
		},
		{
			ID: "fig15", Title: "Traceable rate w.r.t. compromised rate (Cambridge trace)",
			XLabel: "Compromised rate (c/n)", YLabel: "Traceable rate",
			Base:    cambridge,
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindSecurityPoint, Trace: scenario.TraceCambridge},
		},
		{
			ID: "fig16", Title: "Path anonymity w.r.t. compromised rate (Cambridge trace)",
			XLabel: "Compromised rate (c/n)", YLabel: "Path anonymity",
			Notes:   []string{"exact entropy ratio (Eqs. 14/17) used: Eq. 19's n >> K premise fails at n=12"},
			Base:    cambridge,
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, Trace: scenario.TraceCambridge},
		},
		{
			ID: "fig17", Title: "Delivery rate w.r.t. deadline (Infocom 2005 trace)",
			XLabel: "Deadline (seconds)", YLabel: "Delivery rate",
			LogX:    true,
			Notes:   []string{"synthetic Infocom-like trace; the plateau spans the silent session breaks"},
			Base:    infocom,
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 3, 5}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline, Values: infocomDeadlines},
			Measure: scenario.Measure{Kind: scenario.KindTraceReplay, Trace: scenario.TraceInfocom},
		},
		{
			ID: "fig18", Title: "Traceable rate w.r.t. compromised rate (Infocom 2005 trace)",
			XLabel: "Compromised rate (c/n)", YLabel: "Traceable rate",
			Base:    infocom,
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindSecurityPoint, Trace: scenario.TraceInfocom},
		},
		{
			ID: "fig19", Title: "Path anonymity w.r.t. compromised rate (Infocom 2005 trace)",
			XLabel: "Compromised rate (c/n)", YLabel: "Path anonymity",
			Base:    infocom,
			Series:  scenario.Axis{Name: "copies", Param: "Copies", Values: []float64{1, 3, 5}, LabelFormat: "L=%d"},
			X:       scenario.Axis{Name: "compromised rate", Param: scenario.ParamFrac, Values: scenario.CompromisedFractions()},
			Measure: scenario.Measure{Kind: scenario.KindAnonymity, Trace: scenario.TraceInfocom},
		},
	}
}

// ablationSpecs is the declarative table behind the ablations
// (DESIGN.md Sec. 5). ablation-spray is a plain delivery-curve spec;
// the rest dispatch to bespoke generators registered as scenario
// customs (this package's init functions), with IDs, titles, labels
// and static notes owned by the table.
func ablationSpecs() []scenario.Scenario {
	sprayBase := core.DefaultConfig()
	sprayBase.Copies = 3
	return []scenario.Scenario{
		{
			ID: "ablation-baselines", Title: "The price of anonymity: onion routing vs. non-anonymous DTN protocols",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Notes:   []string{"engine baselines compared on identical contact realizations (paired)"},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-baselines"},
		},
		{
			ID: "ablation-buffers", Title: "Delivery under buffer pressure (full-crypto runtime, L=3 spray)",
			XLabel: "Per-node buffer limit (onions; 16 = unlimited)", YLabel: "Delivery rate",
			Notes:   []string{"the paper's models assume infinite buffers (Sec. III-A); this shows what that assumption hides"},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-buffers"},
		},
		{
			ID: "ablation-faults", Title: "Delivery, cost and anonymity vs. injected fault rate",
			XLabel: "Fault rate p (per contact / per hand-off)", YLabel: "Delivery rate (cost and anonymity noted)",
			Notes: []string{
				"every corrupted frame was rejected at the CRC/AEAD layer: delivery counts contain authenticated bundles only",
				"cost series is in transmissions (right-hand scale when plotted); anonymity is flat because faults do not change the anonymity set at fixed c/n",
			},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-faults"},
		},
		{
			ID: "ablation-predecessor", Title: "Predecessor attack: source identification vs. observed messages (c/n=20%)",
			XLabel: "Messages observed from the same source", YLabel: "P[adversary identifies the source]",
			Notes:   []string{"spray mode dilutes the attack: sprayed carriers appear as predecessors alongside the source"},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-predecessor"},
		},
		{
			ID: "ablation-spray", Title: "Multi-copy variants: Algorithm 2 strict vs. source spray-and-wait (L=3)",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Base: sprayBase,
			Series: scenario.Axis{Name: "variant", Param: "Spray", Values: []float64{0, 1},
				Labels: []string{"Strict (Alg. 2)", "Spray (Sec. V variant)"}},
			X: scenario.Axis{Name: "deadline", Param: scenario.ParamDeadline, Values: scenario.DeliveryDeadlines()},
			Measure: scenario.Measure{Kind: scenario.KindDeliveryCurve,
				RunToCompletion: true, SimOnly: true, TxNotes: true},
		},
		{
			ID: "ablation-traceable", Title: "Traceable-rate model reconstructions (K=3)",
			XLabel: "Compromised rate (c/n)", YLabel: "Traceable rate",
			Notes:   []string{"the exact expectation is the headline model; the paper's truncation undershoots as c/n grows"},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-traceable"},
		},
		{
			ID: "ablation-tps", Title: "Onion groups vs. Threshold Pivot Scheme",
			XLabel: "Deadline (minutes)", YLabel: "Delivery rate",
			Notes: []string{
				"TPS's pivot is a single-pair contact bottleneck: it loses to short group-aggregated onion paths and lands in the league of long ones",
				"TPS reveals the destination to the pivot (Sec. VI-C); onion groups never do",
			},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-tps"},
		},
		{
			ID: "ablation-model-gap", Title: "Decomposing the opportunistic onion path model's optimism",
			XLabel: "Max mean ICT (minutes; min fixed at 1)", YLabel: "Delivery rate at T = 2 x mean traversal",
			Notes: []string{
				"Eq. 4 as printed sums last-hop rates over all g members of R_K; only one member holds the message",
				"averaging the last hop closes most of the gap at homogeneous rates; the residual right-side gap is rate heterogeneity (E[1/rate] > 1/E[rate])",
			},
			Base:    core.DefaultConfig(),
			Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "ablation-model-gap"},
		},
	}
}
