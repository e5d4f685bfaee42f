// Package planorderbad is a hawq-check fixture: map iteration where
// plans are built, for the determinism analyzer's plan-order rule.
package planorderbad

// Cheapest picks the first strict minimum a map range happens to meet:
// equal costs are a coin flip, and the coin is the plan.
func Cheapest(cost map[int]float64) int {
	best := -1
	for u := range cost {
		if best == -1 || cost[u] < cost[best] {
			best = u
		}
	}
	return best
}

// named is a map under a named type; ranging over it is no better.
type named map[string]bool

// Any returns whichever key comes first.
func Any(set named) string {
	for k := range set {
		return k
	}
	return ""
}

// CheapestInOrder walks the candidates in the order they were written,
// which is the allowed convention: ties go to the lower position.
func CheapestInOrder(units []int, cost map[int]float64) int {
	best := -1
	for _, u := range units {
		if best == -1 || cost[u] < cost[best] {
			best = u
		}
	}
	return best
}

// Lookup only indexes the map, which is fine.
func Lookup(cost map[int]float64, u int) float64 {
	return cost[u]
}
