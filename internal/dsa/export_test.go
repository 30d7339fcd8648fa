package dsa

import "repro/internal/graph"

// SiteCSR exposes a site's CSR to the package's external tests.
func SiteCSR(s *Site) *graph.CSR { return s.csr }
