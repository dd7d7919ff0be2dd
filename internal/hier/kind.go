package hier

import (
	"fmt"
	"strings"

	"repro/internal/lnuca"
)

// Kind selects a hierarchy organization.
type Kind uint8

const (
	// Conventional is L1 32KB / L2 256KB / L3 8MB (Fig. 1(a)).
	Conventional Kind = iota
	// LNUCAL3 replaces the L2 with an L-NUCA (Fig. 1(b)).
	LNUCAL3
	// DNUCAOnly is L1 / D-NUCA 8MB (Fig. 1(c)).
	DNUCAOnly
	// LNUCADNUCA inserts an L-NUCA between L1 and D-NUCA (Fig. 1(d)).
	LNUCADNUCA
)

// kinds is the one table of the four Fig. 1 organizations: what each is
// called and what it is built from. Everything that names, parses,
// labels or wires a hierarchy reads it; a fifth organization is a row
// here plus whatever new component it needs in build.
var kinds = [...]struct {
	// label is the paper's name for the family. It is the hierarchy
	// field of the job key (orchestrator.KeySchema): changing one orphans
	// every stored result of that kind.
	label string
	// names are the request spellings, case-insensitive: the canonical
	// one (what RequestName returns) first, then the aliases.
	names []string
	// The private side is an L-NUCA fabric, or an L1 with (hasL2) or
	// without an L2 behind it; the last level is the D-NUCA or the L3.
	hasLNUCA, hasL2, dnucaLast bool
}{
	Conventional: {label: "L2-256KB", names: []string{"conventional", "conv", "l2", "l2-256kb"}, hasL2: true},
	LNUCAL3:      {label: "LN+L3", names: []string{"ln+l3", "lnuca", "lnuca-l3", "lnuca+l3", "ln"}, hasLNUCA: true},
	DNUCAOnly:    {label: "DN-4x8", names: []string{"dn-4x8", "dnuca", "dn"}, dnucaLast: true},
	LNUCADNUCA:   {label: "LN+DN-4x8", names: []string{"ln+dn-4x8", "lnuca-dnuca", "lnuca+dnuca", "ln+dn"}, hasLNUCA: true, dnucaLast: true},
}

// DefaultLevels is the L-NUCA depth a request that names none gets;
// minLevels..maxLevels (72KB..552KB) is the range a fabric is built for.
const (
	DefaultLevels = 3
	minLevels     = 2
	maxLevels     = 6
)

func (k Kind) valid() bool { return int(k) < len(kinds) }

// String is the paper's label of the family, without a depth.
func (k Kind) String() string {
	if !k.valid() {
		return "hier?"
	}
	return kinds[k].label
}

// HasLNUCA reports whether the kind's private side is an L-NUCA fabric,
// i.e. whether a depth means anything for it.
func (k Kind) HasLNUCA() bool { return k.valid() && kinds[k].hasLNUCA }

// RequestName is the canonical request spelling of the kind — the
// first name ParseKind accepts for it.
func (k Kind) RequestName() string {
	if !k.valid() {
		return k.String()
	}
	return kinds[k].names[0]
}

// ParseKind maps a user-facing hierarchy name (canonical request name or
// alias, case-insensitive) onto its Kind.
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for k := range kinds {
		for _, n := range kinds[k].names {
			if n == want {
				return Kind(k), nil
			}
		}
	}
	canonical := make([]string, len(kinds))
	for k := range kinds {
		canonical[k] = Kind(k).RequestName()
	}
	return 0, fmt.Errorf("hier: unknown hierarchy %q (want one of %s)", name, strings.Join(canonical, ", "))
}

// Levels canonicalizes an L-NUCA depth for the kind: defaulted and
// bounded where the kind has a fabric, cleared to 0 where it has none.
func Levels(k Kind, levels int) (int, error) {
	switch {
	case !k.valid():
		return 0, fmt.Errorf("hier: unknown kind %d", k)
	case !k.HasLNUCA():
		return 0, nil
	case levels == 0:
		return DefaultLevels, nil
	case levels < minLevels || levels > maxLevels:
		return 0, fmt.Errorf("hier: unsupported L-NUCA levels %d", levels)
	}
	return levels, nil
}

// Label renders one configuration the way the paper's figures name it
// ("L2-256KB", "LN3-144KB", "DN-4x8", "LN3 + DN-4x8"). levels is the
// canonical depth Levels returns.
func Label(k Kind, levels int) string {
	switch {
	case !k.HasLNUCA():
		return k.String()
	case kinds[k].dnucaLast:
		return fmt.Sprintf("LN%d + %s", levels, DNUCAOnly)
	default:
		return fmt.Sprintf("LN%d-%dKB", levels, lnuca.CapacityKB(levels))
	}
}
