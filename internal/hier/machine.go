package hier

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/lnuca"
)

// params is the one table of machine parameters a request may set, sorted by
// name: what the row is, the range a request may ask for, the config field
// it sets. Its Table I value is read from lnuca.DefaultConfig (tableI). A row
// comes with the caller that varies it, not ahead of one.
var params = [...]param{
	{"ln.link_buf", "link buffer entries", 1, 8, func(c *lnuca.Config, v int) { c.LinkBufEntries = v }},
	{"ln.routing", "transport routing, 0 random as in the paper or 1 deterministic", 0, 1, func(c *lnuca.Config, v int) { c.DeterministicRouting = v == 1 }},
	{"ln.tile_kb", "tile size in KB", 2, 16, func(c *lnuca.Config, v int) { c.TileBank.SizeBytes = v << 10 }},
}

type param struct {
	name, about string
	min, max    int
	set         func(*lnuca.Config, int)
}

// tableI returns the row's Table I value: the one in range that leaves the
// Table I fabric def as it is.
func (p param) tableI(def lnuca.Config) int {
	for v := p.min; v < p.max; v++ {
		probe := def
		if p.set(&probe, v); probe == def {
			return v
		}
	}
	return p.max
}

// Machine is a resolved machine member: "name=value" for each row that
// differs from Table I, in table order, comma-joined; "" is Table I.
type Machine string

// ResolveMachine checks a machine member — rows by name, integers in range
// that the component accepts — and drops the rows at Table I, and every row
// when k builds no L-NUCA.
func ResolveMachine(k Kind, set map[string]float64) (Machine, error) {
	if len(set) == 0 {
		return "", nil
	}
	def := lnuca.DefaultConfig(DefaultLevels)
	cfg, found, bad := def, 0, false
	var kept, rows []string
	for _, p := range params {
		tableI := p.tableI(def)
		rows = append(rows, fmt.Sprintf("%s %d..%d (%s, Table I %d)", p.name, p.min, p.max, p.about, tableI))
		if v, ok := set[p.name]; ok {
			found++
			bad = bad || v != math.Trunc(v) || v < float64(p.min) || v > float64(p.max)
			p.set(&cfg, int(v))
			if int(v) != tableI && k.HasLNUCA() {
				kept = append(kept, fmt.Sprintf("%s=%d", p.name, int(v)))
			}
		}
	}
	if bad || found != len(set) {
		return "", fmt.Errorf("hier: machine %v: want integer rows %s", set, strings.Join(rows, ", "))
	}
	if err := cfg.TileBank.Validate(); err != nil {
		return "", fmt.Errorf("hier: machine %v: %w", set, err)
	}
	return Machine(strings.Join(kept, ",")), nil
}

// Values renders the machine as a request's machine member, nil for Table I.
func (m Machine) Values() map[string]float64 {
	if m == "" {
		return nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(string(m), ",") {
		name, v, _ := strings.Cut(pair, "=")
		out[name], _ = strconv.ParseFloat(v, 64)
	}
	return out
}

// apply sets the machine's rows on a fabric configuration.
func (m Machine) apply(cfg *lnuca.Config) {
	values := m.Values()
	for _, p := range params {
		if v, ok := values[p.name]; ok {
			p.set(cfg, int(v))
		}
	}
}
