package hier

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// prewarmRef is Prewarm as it stood before cache.Bank.PreloadRange: one
// Fill per block. Kept verbatim as the reference the closed form is
// compared with.
func prewarmRef(s *System) {
	fill32 := func(bank *cache.Bank, base mem.Addr, kb int) {
		for off := 0; off < kb<<10; off += 32 {
			bank.Fill(base+mem.Addr(off), false)
		}
	}
	for i, prof := range s.profiles {
		off := CoreOffset(i)
		hotB, hotKB := workload.HotRange(prof)
		warmB, warmKB := workload.WarmRange(prof)
		coolB, coolKB := workload.CoolRange(prof)
		hotB, warmB, coolB = hotB+off, warmB+off, coolB+off

		if s.Fabrics != nil {
			fill32(s.Fabrics[i].RTileBank(), hotB, hotKB)
			prewarmTiles(s.Fabrics[i], warmB, warmKB)
		} else {
			fill32(s.L1s[i].Bank(), hotB, hotKB)
		}
		if s.L2s != nil {
			for o := 0; o < warmKB<<10; o += 64 {
				s.L2s[i].Bank().Fill(warmB+mem.Addr(o), false)
			}
		}
		if s.L3 != nil {
			prewarmLLCRef(s.L3, hotB, hotKB, warmB, warmKB, coolB, coolKB)
		} else {
			prewarmDN(s.DN, hotB, hotKB, warmB, warmKB, coolB, coolKB)
		}
	}
}

func prewarmLLCRef(l3 *cache.Controller, hotB mem.Addr, hotKB int, warmB mem.Addr, warmKB int, coolB mem.Addr, coolKB int) {
	for off := 0; off < (coolKB+warmKB+hotKB)<<10; off += 128 {
		a := mem.Addr(off)
		switch {
		case off < coolKB<<10:
			a += coolB
		case off < (coolKB+warmKB)<<10:
			a = warmB + a - mem.Addr(coolKB<<10)
		default:
			a = hotB + a - mem.Addr((coolKB+warmKB)<<10)
		}
		l3.Bank().Fill(a, false)
	}
}

// banksOf names every bank Prewarm may write.
func banksOf(s *System) map[string]*cache.Bank {
	out := map[string]*cache.Bank{}
	for i := range s.Cores {
		if s.Fabrics != nil {
			out[fmt.Sprintf("c%d.rtile", i)] = s.Fabrics[i].RTileBank()
			for id := 0; id < s.Fabrics[i].Geometry().NumTiles(); id++ {
				out[fmt.Sprintf("c%d.tile%d", i, id)] = s.Fabrics[i].TileBank(id)
			}
		} else {
			out[fmt.Sprintf("c%d.l1", i)] = s.L1s[i].Bank()
		}
		if s.L2s != nil {
			out[fmt.Sprintf("c%d.l2", i)] = s.L2s[i].Bank()
		}
	}
	if s.L3 != nil {
		out["l3"] = s.L3.Bank()
	} else {
		cfg := s.DN.Config()
		for col := 0; col < cfg.Cols; col++ {
			for row := 0; row < cfg.Rows; row++ {
				out[fmt.Sprintf("dn%d.%d", col, row)] = s.DN.BankArray(col, row)
			}
		}
	}
	return out
}

// TestPrewarmMatchesFillLoops: for every Fig. 1 hierarchy, two catalog
// profiles and a two-core machine (the second core preloads a last level
// the first already filled), Prewarm leaves each bank with the lines, in
// the per-set LRU order, that the block-by-block loops left.
func TestPrewarmMatchesFillLoops(t *testing.T) {
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		for _, names := range [][]string{{"403.gcc"}, {"434.zeusmp"}, {"429.mcf", "470.lbm"}} {
			profs := mixProfiles(t, names...)
			build := func() *System {
				if len(profs) == 1 {
					s, err := Build(kind, profs[0], Options{Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				s, err := BuildCMP(kind, profs, CMPOptions{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			got, want := build(), build()
			got.Prewarm()
			prewarmRef(want)
			wantBanks := banksOf(want)
			for name, b := range banksOf(got) {
				ref := wantBanks[name]
				// Lines walks sets, and ways within a set, in order; a line's
				// address fixes its set, so equal walks are equal sets.
				if !reflect.DeepEqual(b.Lines(nil), ref.Lines(nil)) || b.Occupancy() != ref.Occupancy() {
					t.Errorf("%v %v: %s holds %d lines, or their LRU order, unlike the Fill loops' %d",
						kind, names, name, b.Occupancy(), ref.Occupancy())
				}
			}
		}
	}
}
