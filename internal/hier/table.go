package hier

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dnuca"
	"repro/internal/lnuca"
	"repro/internal/mem"
	"repro/internal/nocpower"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/tech"
)

// TableI is the paper's Table I as build instantiates it. Each value is
// written once: the core, the fabric, the D-NUCA and main memory in their
// packages' DefaultConfig, everything else in DefaultTableI. The builders,
// the energy and area models, the tile timing report and Render read it.
type TableI struct {
	Core       cpu.Config
	L1, L2, L3 cache.ControllerConfig
	LNUCA      lnuca.Config // at DefaultLevels; build asks for its depth
	DNUCA      dnuca.Config
	Memory     mem.MainMemoryConfig
	// PortDepth bounds each direction of the ports between the core, the
	// private levels, the last level and memory.
	PortDepth int
	// The links the energy and area models charge: the L-NUCA's are
	// message-wide and a tile pitch long, the D-NUCA's a flit wide and a
	// 256KB bank long.
	SearchLink, TransportLink, DNUCALink nocpower.LinkSpec
	energy                               energy
}

// energy is Table I's dynamic energy per access (pJ) and leakage (mW).
type energy struct {
	l1, l2, tile, l3, dnBank array
	// A tile miss lookup stops at the tags; a fill writes a whole block.
	tileTagProbePJ, tileFillPJ      float64
	uComparePJ, routerLeakPerTileMW float64
}

type array struct{ readPJ, leakMW float64 }

// DefaultTableI returns Table I.
func DefaultTableI() TableI {
	ln, dn := lnuca.DefaultConfig(DefaultLevels), dnuca.DefaultConfig()
	const tilePitchMM, tileReadPJ = 0.25, 14.0
	return TableI{
		Core: cpu.DefaultConfig(),
		// The L1 is the fabric's r-tile on its own: the same array, ports
		// and miss file.
		L1: cache.ControllerConfig{
			Name:             "L1",
			Bank:             ln.RTileBank,
			CompletionCycles: 0, // port crossings model the 2-cycle completion
			InitiationCycles: 1,
			Ports:            ln.RTilePorts,
			Policy:           cache.WriteThrough,
			Mode:             cache.Parallel,
			MSHREntries:      ln.MSHREntries,
			MSHRSecondary:    ln.MSHRSecondary,
			WriteBufEntries:  8,
		},
		L2: cache.ControllerConfig{
			Name:             "L2",
			Bank:             cache.BankConfig{SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64},
			CompletionCycles: 4,
			InitiationCycles: 2,
			Ports:            1,
			Policy:           cache.CopyBack,
			Mode:             cache.Serial,
			MSHREntries:      16,
			MSHRSecondary:    4,
			WriteBufEntries:  32,
			BusCycles:        2, // 64B over the L1-L2 link
			TagMissCycles:    3, // serial-mode tag path before forwarding
		},
		L3: cache.ControllerConfig{
			Name:             "L3",
			Bank:             cache.BankConfig{SizeBytes: 8 << 20, Ways: 16, BlockBytes: 128},
			CompletionCycles: 20,
			InitiationCycles: 15,
			Ports:            1,
			Policy:           cache.CopyBack,
			Mode:             cache.Serial,
			MSHREntries:      8,
			MSHRSecondary:    4,
			WriteBufEntries:  32,
			BusCycles:        4, // 128B block return to the L2/L-NUCA
			TagMissCycles:    4,
		},
		LNUCA:     ln,
		DNUCA:     dn,
		Memory:    mem.DefaultMainMemoryConfig(),
		PortDepth: 8,
		// A search carries a block address and status, a transport message
		// a tile block besides.
		SearchLink:    nocpower.LinkSpec{Bits: 48, LengthMM: tilePitchMM},
		TransportLink: nocpower.LinkSpec{Bits: 8*ln.TileBank.BlockBytes + 40, LengthMM: tilePitchMM},
		DNUCALink:     nocpower.LinkSpec{Bits: 8 * dn.FlitBytes, LengthMM: 1.0},
		energy: energy{
			l1: array{21.2, 12.8}, l2: array{47.2, 66.9}, tile: array{tileReadPJ, 2.2},
			l3: array{20.9, 600.0}, dnBank: array{131.2, 33.5},
			tileTagProbePJ: 0.25 * tileReadPJ, tileFillPJ: 1.1 * tileReadPJ,
			uComparePJ: 0.5, routerLeakPerTileMW: 0.15,
		},
	}
}

// SRAM returns the array behind a controller: its bank and ports in the
// high-performance device, tags before data in Serial mode.
func SRAM(c cache.ControllerConfig) sram.Config {
	b := c.Bank
	return sram.Config{SizeBytes: b.SizeBytes, Ways: b.Ways, BlockBytes: b.BlockBytes,
		Ports: c.Ports, Device: tech.HP, Serial: c.Mode == cache.Serial}
}

// TileSRAM returns one L-NUCA tile's array: the tile bank behind one port.
func (t TableI) TileSRAM() sram.Config {
	return SRAM(cache.ControllerConfig{Bank: t.LNUCA.TileBank, Ports: 1})
}

// Render lays the table out as the paper's Table I, each row from the
// table's values, saying how the model charges a latency where that
// differs from the paper's cell.
func (t TableI) Render() *stats.Table {
	c, ln, dn, m, e := t.Core, t.LNUCA, t.DNUCA, t.Memory, t.energy
	out := stats.NewTable("Table I: architectural and network parameters (as instantiated)", "parameter", "value")
	row := func(name, format string, args ...interface{}) { out.AddRow(name, fmt.Sprintf(format, args...)) }
	level := func(l cache.ControllerConfig) string {
		return fmt.Sprintf("%s, %d-cycle completion %d-cycle initiation, %s",
			geometry(l.Bank), l.CompletionCycles, l.InitiationCycles, l.Policy)
	}
	row("Fetch/Decode width", "%d, up to %d taken branches", c.FetchWidth, c.MaxTakenPerCycle)
	row("Issue width", "%d (INT or MEM) + %d FP", c.IntMemIssue, c.FPIssue)
	row("Commit width", "%d", c.CommitWidth)
	row("ROB / LSQ", "%d / %d", c.ROBSize, c.LSQSize)
	row("Store buffer", "%d", c.StoreBufSize)
	row("INT/FP/MEM issue windows", "%d / %d / %d", c.IntIQ, c.FPIQ, c.MemIQ)
	row("Branch predictor", "bimodal + gshare, %d-bit history", cpu.BPredBits)
	row("Branch mispredict delay", "%d", c.MispredictDelay)
	row("MSHR L1/L2/L3/D-NUCA", "%d / %d / %d / %d (%d secondary)",
		t.L1.MSHREntries, t.L2.MSHREntries, t.L3.MSHREntries, dn.MSHREntries, t.L1.MSHRSecondary)
	row("Write buffer L1/L2/L3/L-NUCA/D-NUCA", "%d / %d / %d / %d / %d",
		t.L1.WriteBufEntries, t.L2.WriteBufEntries, t.L3.WriteBufEntries, ln.WriteBufEntries, dn.WriteBufEntries)
	row("TLB", "%d entries, %d-cycle miss", c.TLBEntries, c.TLBMissLatency)
	row("L1 / r-tile", "%s, 2-cycle completion as its 2 port crossings, %d-cycle initiation, %s, %d ports, %g pJ, %g mW",
		geometry(t.L1.Bank), t.L1.InitiationCycles, t.L1.Policy, t.L1.Ports, e.l1.readPJ, e.l1.leakMW)
	row("L2", "%s, %g pJ, %g mW", level(t.L2), e.l2.readPJ, e.l2.leakMW)
	row("L-NUCA tile", "%s, 1-cycle: a hit at level L, distance D costs L + D, copy-back, %g pJ, %g mW",
		geometry(ln.TileBank), e.tile.readPJ, e.tile.leakMW)
	row("L3", "%s, LOP, %g pJ, %g mW", level(t.L3), e.l3.readPJ, e.l3.leakMW)
	row("D-NUCA", "%s, %d bank sets x %d rows, %s banks, %d-cycle initiation charged, %d-cycle completion not modelled, %g pJ, %g mW/bank",
		size(dn.Rows*dn.Cols*dn.Bank.SizeBytes), dn.Cols, dn.Rows, geometry(dn.Bank),
		dn.BankInitiation, dn.BankCompletion, e.dnBank.readPJ, e.dnBank.leakMW)
	row("Main memory", "%d-cycle first chunk, %d-cycle inter-chunk, %dB wires", m.FirstChunkCycles, m.InterChunkCycles, m.ChunkBytes)
	row("Level ports", "%d-entry queues each way", t.PortDepth)
	row("L-NUCA links", "message-wide (%d-bit search, %d-bit transport), %d-entry buffers, On/Off flow control",
		t.SearchLink.Bits, t.TransportLink.Bits, ln.LinkBufEntries)
	row("D-NUCA network", "wormhole, %d VCs, %d-flit buffers, %dB flits, 1-%d flits/message",
		dn.VCs, dn.VCDepth, dn.FlitBytes, dn.Bank.BlockBytes/dn.FlitBytes+1)
	return out
}

// geometry prints a bank the way Table I does: "32KB 4-way 32B".
func geometry(b cache.BankConfig) string {
	return fmt.Sprintf("%s %d-way %dB", size(b.SizeBytes), b.Ways, b.BlockBytes)
}

// size prints a capacity in MB when it is whole megabytes, else in KB.
func size(bytes int) string {
	if bytes%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", bytes>>20)
	}
	return fmt.Sprintf("%dKB", bytes>>10)
}
