package mpls

import "testing"

// LineNet is lineNet's network, for the package's external tests.
func LineNet(tb testing.TB, n int) *Network {
	_, net := lineNet(tb, n)
	return net
}
