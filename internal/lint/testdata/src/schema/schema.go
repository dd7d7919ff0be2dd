// Package schema exercises the schemastable analyzer against a
// manifest built in schemastable_test.go: Stable/Key/keySchema match
// the manifest, Drifted deliberately renames a keyed field, minor
// deliberately drifts a frozen constant, and the "test-missing" spec
// has no manifest entry at all (reported on the package clause below).
package schema // want `schema test-missing has no manifest entry`

import "fmt"

const keySchema = "test-v1"

const minor = 3 // want `const minor = 3 drifted from manifest value 2`

// Stable matches its committed fingerprint exactly: memo is unexported,
// so encoding/json never sees it and the fingerprint leaves it out; the
// embedded base it does see, through its promoted field.
type Stable struct {
	A int    `json:"a"`
	B string `json:"b"`
	base
	memo []byte
}

type base struct {
	C int `json:"c"`
}

// Drifted renames the manifest's `B int json:"b"` field: the break the
// analyzer exists to catch.
type Drifted struct { // want `struct Drifted drifted from the committed manifest`
	A int `json:"a"`
	C int `json:"c"`
}

// Key's format literal is part of the fingerprint.
func Key(a int) string {
	return fmt.Sprintf("%s|a=%d", keySchema, a)
}
