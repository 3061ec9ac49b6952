package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Verdict is how a measured value stands against the paper's.
type Verdict string

// One rule judges every claim. A value claim compares measured/paper
// with fixed bands, symmetric in the ratio: within 1.25x either way is a
// match, within 2x is close, further off differs. An ordering claim
// holds when its measured values rise strictly, and fails otherwise.
const (
	Match   Verdict = "match"
	Close   Verdict = "close"
	Differs Verdict = "differs"
	Holds   Verdict = "holds"
	Fails   Verdict = "fails"

	matchBand = 1.25
	closeBand = 2.0
)

// Claim is one published result of the paper (or, for the extensions,
// of its argument) checked against an experiment's run. Figure names
// the paper's table, figure or section ("Fig 1"), and Quantity what is
// compared, footnote marks pointing into EXPERIMENTS.md. Paper is the
// paper's value in Measure's unit, or 0 for an ordering, which the
// paper states without a number. Measure extracts the measured values
// from the run's result: one for a value claim, the chain that should
// rise for an ordering. Format prints Paper and each measured value
// ("%.0fx"). Want is the verdict the seed-1 run reaches.
type Claim struct {
	Figure, Quantity string
	Paper            float64
	Format           string
	Measure          func(Result) []float64
	Want             Verdict
}

// value declares a claim on one measured number.
func value[R Result](figure, quantity string, paper float64, format string, want Verdict, measure func(R) float64) Claim {
	return Claim{figure, quantity, paper, format, func(r Result) []float64 { return []float64{measure(r.(R))} }, want}
}

// order declares an ordering: the measured values rise strictly.
func order[R Result](figure, quantity, format string, want Verdict, measure func(R) []float64) Claim {
	return Claim{figure, quantity, 0, format, func(r Result) []float64 { return measure(r.(R)) }, want}
}

// Check measures the claim on r and returns the measured column and the
// verdict.
func (c Claim) Check(r Result) (measured string, v Verdict) {
	vals := c.Measure(r)
	measured = fmt.Sprintf(c.Format, vals[0])
	if c.Paper != 0 {
		switch ratio := math.Abs(math.Log(vals[0] / c.Paper)); {
		case ratio <= math.Log(matchBand):
			return measured, Match
		case ratio <= math.Log(closeBand):
			return measured, Close
		}
		return measured, Differs
	}
	v = Holds
	for i := 1; i < len(vals); i++ {
		sep := " < "
		if vals[i-1] >= vals[i] {
			sep, v = " ≥ ", Fails
		}
		measured += sep + fmt.Sprintf(c.Format, vals[i])
	}
	return measured, v
}

// ClaimsTable renders claims measured on r as the Markdown table that
// EXPERIMENTS.md carries: experiment, quantity, paper, measured, verdict.
func ClaimsTable(claims []Claim, r Result) string {
	var b strings.Builder
	b.WriteString("| Experiment | Quantity | Paper | Measured | Verdict |\n|---|---|---|---|---|\n")
	for _, c := range claims {
		paper := "yes"
		if c.Paper != 0 {
			paper = fmt.Sprintf(c.Format, c.Paper)
		}
		measured, v := c.Check(r)
		fmt.Fprintf(&b, "| %s | %s | %s | **%s** | %s |\n", c.Figure, c.Quantity, paper, measured, v)
	}
	return b.String()
}
