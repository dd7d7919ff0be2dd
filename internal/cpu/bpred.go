package cpu

// Combining branch predictor in the style the paper configures
// SimpleScalar with: a bimodal table plus a gshare component with 16 bits
// of global history, selected by a chooser table (Table I: "bimodal +
// gshare, 16 bit").
type BPred struct {
	bimodal []uint8 // 2-bit counters indexed by PC
	gshare  []uint8 // 2-bit counters indexed by PC ^ history
	chooser []uint8 // 2-bit meta: >=2 prefers gshare
	history uint16

	// Stats
	Lookups, Mispredicts uint64
}

// BPredBits is the global-history width; each table has 2^BPredBits entries.
const BPredBits = 16

// NewBPred builds the predictor with 2^BPredBits-entry tables.
func NewBPred() *BPred {
	n := 1 << BPredBits
	return &BPred{
		bimodal: filled(n, 1), // weakly not-taken
		gshare:  filled(n, 1),
		chooser: filled(n, 2), // weakly prefer gshare
	}
}

// filled returns n counters set to v, each copy doubling the filled
// prefix: a core build pays 16 copies a table, not 64 Ki stores.
func filled(n int, v uint8) []uint8 {
	t := make([]uint8, n)
	t[0] = v
	for k := 1; k < n; k *= 2 {
		copy(t[k:], t[:k])
	}
	return t
}

func (p *BPred) idxBimodal(pc uint64) int {
	return int(pc>>2) & (len(p.bimodal) - 1)
}

func (p *BPred) idxGshare(pc uint64) int {
	return (int(pc>>2) ^ int(p.history)) & (len(p.gshare) - 1)
}

// Predict returns the predicted direction for the branch at pc without
// training (a pure read; Update counts statistics).
func (p *BPred) Predict(pc uint64) bool {
	if p.chooser[p.idxBimodal(pc)] >= 2 {
		return p.gshare[p.idxGshare(pc)] >= 2
	}
	return p.bimodal[p.idxBimodal(pc)] >= 2
}

// Update trains the predictor with the resolved outcome and reports
// whether the prediction made with the current state was correct. Callers
// use the returned mispredict flag at fetch time and train immediately,
// which approximates in-order update well enough for a timing model.
func (p *BPred) Update(pc uint64, taken bool) (mispredicted bool) {
	p.Lookups++
	bi := p.idxBimodal(pc)
	gi := p.idxGshare(pc)
	bPred := p.bimodal[bi] >= 2
	gPred := p.gshare[gi] >= 2
	used := bPred
	if p.chooser[bi] >= 2 {
		used = gPred
	}
	mispredicted = used != taken

	// Train the chooser toward whichever component was right.
	if bPred != gPred {
		if gPred == taken {
			p.chooser[bi] = satInc(p.chooser[bi])
		} else {
			p.chooser[bi] = satDec(p.chooser[bi])
		}
	}
	if taken {
		p.bimodal[bi] = satInc(p.bimodal[bi])
		p.gshare[gi] = satInc(p.gshare[gi])
	} else {
		p.bimodal[bi] = satDec(p.bimodal[bi])
		p.gshare[gi] = satDec(p.gshare[gi])
	}
	p.history = p.history<<1 | b2u(taken)
	if mispredicted {
		p.Mispredicts++
	}
	return mispredicted
}

func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
