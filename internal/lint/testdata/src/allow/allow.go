// Package allow is a lint fixture exercising the //lint:allow escape
// hatch: every violation below is suppressed except the want-marked
// lines, whose allows do not cover them.
package allow

import (
	"fmt"
	"sort"
)

// SortedValues collects then sorts; the maporder allow rides on the
// line above the append.
func SortedValues(m map[int]int) []int {
	var out []int
	for _, v := range m {
		//lint:allow maporder collected slice is sorted before being returned
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CheckPositive panics naming a map key, a line two rules flag at once
// (maporder for the Sprintf inside the loop, panicfree for the panic):
// one comma-list allow suppresses both.
func CheckPositive(m map[int]int) {
	for k, v := range m {
		if v < 0 {
			//lint:allow maporder,panicfree fixture demonstrates the comma-list escape hatch
			panic(fmt.Sprintf("negative value at key %d", k))
		}
	}
}

// Banner is a deliberate same-line suppression.
func Banner(v int) {
	fmt.Println("banner", v) //lint:allow printclean fixture demonstrates same-line suppression
}

// Guard panics with an inline justification.
func Guard(v int) int {
	if v < 0 {
		panic("allow fixture: negative") //lint:allow panicfree negative v is a caller bug, documented contract
	}
	return v
}

// TrailingScope pins the fix for trailing-allow over-suppression: an
// allow sharing its line with code covers exactly that line, so the
// second print below stays a finding. (Only standalone comment lines
// extend their suppression to the next line.)
func TrailingScope(v int) {
	fmt.Println("first", v)  //lint:allow printclean trailing allow covers exactly this line
	fmt.Println("second", v) // want:printclean
}

// WrongRule shows that an allow for a different rule does not suppress:
// the panicfree allow below must NOT silence maporder.
func WrongRule(m map[int]int) []int {
	var out []int
	for k := range m {
		//lint:allow panicfree mismatched rule name
		out = append(out, k) // want:maporder
	}
	return out
}
