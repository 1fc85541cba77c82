package rbpc

import "fmt"

// LocalScheme selects the local-RBPC variant of Section 4.2: the ILM patch
// flavor the engine installs at the router adjacent to a failure.
type LocalScheme int

const (
	// EndRoute: the router adjacent to the failure rewrites the ILM row
	// to carry the packet to the LSP's destination over a concatenation
	// of surviving base paths.
	EndRoute LocalScheme = iota + 1
	// EdgeBypass: the adjacent router routes around the failed link and
	// the packet resumes the original LSP at the far endpoint.
	EdgeBypass
)

// String implements fmt.Stringer.
func (s LocalScheme) String() string {
	switch s {
	case EndRoute:
		return "end-route"
	case EdgeBypass:
		return "edge-bypass"
	default:
		return fmt.Sprintf("LocalScheme(%d)", int(s))
	}
}
