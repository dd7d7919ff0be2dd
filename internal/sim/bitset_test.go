package sim

import "testing"

func TestBitSetWalksMembersAscending(t *testing.T) {
	s := NewBitSet(200)
	if s.Next(0) != -1 {
		t.Fatal("new set is not empty")
	}
	members := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for i := len(members) - 1; i >= 0; i-- {
		s.Set(members[i])
	}
	var got []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if !s.Has(i) {
			t.Fatalf("Next returned %d, which Has denies", i)
		}
		got = append(got, i)
	}
	if len(got) != len(members) {
		t.Fatalf("walk visited %v, want %v", got, members)
	}
	for i := range got {
		if got[i] != members[i] {
			t.Fatalf("walk visited %v, want %v", got, members)
		}
	}
	if s.Next(66) != 127 || s.Next(129) != 199 || s.Next(200) != -1 || s.Next(1<<20) != -1 {
		t.Fatal("Next from between members or past the capacity is wrong")
	}
	// Clearing the member just visited keeps the walk going.
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		s.Clear(i)
	}
	if s.Next(0) != -1 || s.Has(64) {
		t.Fatal("set not empty after clearing every member")
	}
}
