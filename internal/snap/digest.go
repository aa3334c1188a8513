package snap

// Summary is the deterministic outcome surface of one world: everything
// the sweep CSVs report and the bit-identity checks compare. Two runs of
// the same scenario (cold, resumed, or forked with the same variant)
// produce byte-identical Summaries.
type Summary struct {
	FlowsOffered   int
	FlowsCompleted int
	Marks, Drops   uint64
	Blackholed     uint64
	BufferDrops    uint64
	PFCPauses      uint64
	MeanGbps       float64
	Processed      uint64
	Digest         uint64
}

// Summarize collects the world's outcome surface and its digest
// (psim.Engine.Digest), the same digest the mix experiments report, so a
// CSV diff is a determinism check.
func (w *World) Summarize() Summary {
	marks, drops := w.E.SwitchTotals()
	l := w.E.Losses()

	var s Summary
	s.FlowsOffered = len(w.App.End)
	s.FlowsCompleted = w.App.DoneCount()
	for i := range marks {
		s.Marks += marks[i]
		s.Drops += drops[i]
	}
	s.Blackholed = l.Blackholed
	s.BufferDrops = l.BufferDrops
	s.PFCPauses = l.PFCPauses
	s.MeanGbps = w.Smp.Goodput.Avg()
	s.Processed = w.E.Processed()
	s.Digest = w.E.Digest(w.App, w.Smp)
	return s
}

// Digest returns just the bit-identity digest (see Summarize).
func (w *World) Digest() uint64 { return w.E.Digest(w.App, w.Smp) }
