package cspm

import (
	"cspm/internal/graph"
	"cspm/internal/invdb"
)

// Stepper exposes the CSPM-Partial search one merge at a time, for
// debugging, visualisation, and anytime mining (stop whenever the model is
// good enough — every prefix of the merge sequence is a valid lossless
// model). Construct with NewStepper, call Step until it returns false, and
// read Snapshot for the current model at any point. Step applies exactly the
// merges MineWithOptions would, in the same order, and stops after
// Options.MaxIterations merges when that cap is set.
type Stepper struct {
	db    *invdb.DB
	vocab *graph.Vocab
	opts  Options

	baseStats []invdb.LineStat // initial lines, for canonical BaselineDL
	state     *searchState
	merges    int
	doneC     bool
}

// NewStepper builds the inverted database and seeds the candidate set. It
// panics if opts fails Validate.
func NewStepper(g *graph.Graph, opts Options) *Stepper {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	db := invdb.FromGraph(g)
	s := &Stepper{db: db, vocab: g.Vocab(), opts: opts, state: newSearchState()}
	s.baseStats = db.AppendLineStats(nil)
	s.state.seed(db, opts)
	return s
}

// Step applies the next best merge. It returns the realised merge result
// and true, or a zero result and false when nothing compresses any more or
// Options.MaxIterations merges have been applied.
func (s *Stepper) Step() (StepResult, bool) {
	if s.doneC {
		return StepResult{}, false
	}
	res, ok := s.state.step(s.db, s.opts)
	if !ok {
		s.doneC = true
		return StepResult{}, false
	}
	s.merges++
	s.doneC = s.merges == s.opts.MaxIterations
	out := StepResult{
		Merges:  s.merges,
		Gain:    res.Gain,
		TotalDL: s.db.TotalDL(),
	}
	out.NewLeafset = append(out.NewLeafset, s.db.Leafsets().Values(res.New)...)
	return out, true
}

// StepResult describes one applied merge.
type StepResult struct {
	Merges     int            // merges applied so far
	Gain       float64        // DL reduction of this merge
	TotalDL    float64        // DL after the merge
	NewLeafset []graph.AttrID // content of the merged leafset
}

// Done reports whether the search is exhausted or has applied
// Options.MaxIterations merges.
func (s *Stepper) Done() bool { return s.doneC }

// TotalDL returns the current description length from the search's
// incremental accumulators. It is a live diagnostic of the running search:
// equal to the canonical Model DLs as a real number but not necessarily in
// the last float bits — compare against Snapshot()/Mine models through
// Snapshot, not this accessor.
func (s *Stepper) TotalDL() float64 { return s.db.TotalDL() }

// BaselineDL returns the pre-merge description length from the incremental
// accumulators. Same caveat as TotalDL: a search-internal diagnostic, not
// bit-comparable to Model.BaselineDL.
func (s *Stepper) BaselineDL() float64 { return s.db.BaselineDL() }

// Snapshot extracts the current model (valid after any number of steps).
// Like MineDB, it prices BaselineDL and FinalDL canonically, so a snapshot
// taken after the search exhausts is bit-identical to MineWithOptions.
func (s *Stepper) Snapshot() *Model {
	m := dbModel(s.db, s.vocab, s.baseStats)
	m.Iterations = s.merges
	return m
}
