package stats

import "testing"

func TestSetCloneIndependent(t *testing.T) {
	if (*Set)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
	s := NewSet()
	s.Add("l1.hits", 7)
	c := s.Clone()
	if c.Counter("l1.hits") != 7 || len(c.Names()) != 1 {
		t.Fatalf("clone differs from its original:\n%s", c)
	}
	c.Add("l1.hits", 1)
	c.Add("l1.misses", 1)
	if s.Counter("l1.hits") != 7 || s.Counter("l1.misses") != 0 || len(s.Names()) != 1 {
		t.Errorf("a write to the clone reached the original:\n%s", s)
	}
}

func TestSetDeltaClamps(t *testing.T) {
	start, end := NewSet(), NewSet()
	start.Add("grew", 10)
	start.Add("shrank", 5)
	start.Add("gone", 1)
	end.Add("grew", 25)
	end.Add("shrank", 3) // a counter that went backwards has no window value
	end.Add("fresh", 4)

	d := Delta(end, start)
	if d.Counter("grew") != 15 || d.Counter("fresh") != 4 {
		t.Errorf("window counts wrong:\n%s", d)
	}
	if got := d.Names(); len(got) != 2 {
		t.Errorf("Delta kept %v: a counter below its start, or absent from end, must be left out", got)
	}
	d.Add("grew", 1)
	if end.Counter("grew") != 25 {
		t.Error("a write to the delta reached end")
	}
}
