package lint

import "testing"

func TestHotAllocGolden(t *testing.T) {
	// hotuse embeds hot's record in a component, which makes the
	// record's methods roots.
	runGolden(t, []string{"hot", "hotuse"}, []*Analyzer{HotAlloc()})
}
