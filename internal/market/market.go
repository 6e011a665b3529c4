// Package market implements the multi-cloud IaaS market layer: a set
// of named providers, each with its own VM-category price sheet (init
// fee, per-second rate, boot delay, bandwidth), an inter-provider
// transfer-cost matrix ($/GB plus a fixed latency), and optional spot
// categories — discounted rates paired with an exponential revocation
// hazard.
//
// A market Spec is the wire- and CLI-facing description; Compile
// flattens it onto the provider dimension of platform.Platform, so
// every downstream layer (planner, simulator, online executor,
// sweeps) consumes one platform type. Spot revocations compile to a
// fault.Spec crash process (nonzero rate only on spot categories), so
// they reuse the fault injector's CRN trace splitting and paired
// sweeps stay variance-reduced.
//
// A single-provider spec with no transfer matrix and no spot
// categories compiles to a platform that plans, simulates and
// executes bit-identically to the scalar single-catalog model — the
// degenerate-equivalence property test in this package enforces that
// across the planner, the simulator and the online executor's
// decision log.
package market

import (
	"fmt"
	"math"

	"budgetwf/internal/fault"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
)

// bytesPerGB converts the spec's $/GB transfer prices to the
// platform's per-byte convention (decimal GB, matching the paper's
// use of decimal units throughout).
const bytesPerGB = 1e9

// maxProviders bounds the provider count, like the other spec
// ceilings in internal/dist.
const maxProviders = 8

// SpotSpec prices the preemptible variant of a category.
type SpotSpec struct {
	// Discount is the fraction off the on-demand per-second rate, in
	// [0, 1). A 0.7 discount sells the spot twin at 30% of on-demand.
	Discount float64 `json:"discount"`
	// RevocationsPerHour is the exponential preemption hazard λ per
	// hour of VM uptime. Zero means discounted but never revoked.
	RevocationsPerHour float64 `json:"revocationsPerHour,omitempty"`
}

// CategorySpec is one VM category in a provider's price sheet. A
// category with a spot section compiles to two platform categories:
// the on-demand one and its discounted preemptible twin.
type CategorySpec struct {
	Name       string    `json:"name"`
	Speed      float64   `json:"speed"`
	CostPerSec float64   `json:"costPerSec"`
	InitCost   float64   `json:"initCost,omitempty"`
	Spot       *SpotSpec `json:"spot,omitempty"`
}

// ProviderSpec is one provider's price sheet.
type ProviderSpec struct {
	Name string `json:"name"`
	// Bandwidth overrides the market-wide VM↔DC bandwidth for this
	// provider's VMs, in bytes per second. Zero inherits the market
	// default.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// BootTimeSec overrides the market-wide boot delay. Nil inherits
	// the market default (zero is a meaningful override).
	BootTimeSec *float64       `json:"bootTimeSec,omitempty"`
	Categories  []CategorySpec `json:"categories"`
}

// Link prices one direction of the inter-provider transfer matrix.
type Link struct {
	// CostPerGB is charged per decimal gigabyte crossing the link.
	CostPerGB float64 `json:"costPerGB,omitempty"`
	// LatencySec is a fixed delay added to every transfer on the link.
	LatencySec float64 `json:"latencySec,omitempty"`
}

// Spec is the JSON description of a multi-provider market. Market-wide
// fields default to the paper's Table II platform, so a spec only
// states what differs.
type Spec struct {
	Providers []ProviderSpec `json:"providers"`
	// Transfer is the square provider×provider link matrix, in
	// Providers order; Transfer[i][j] prices traffic from provider i's
	// VMs to a datacenter hosted by provider j. Nil means free,
	// latency-free transfers.
	Transfer [][]Link `json:"transfer,omitempty"`
	// Home names the provider hosting the datacenter; default the
	// first provider.
	Home string `json:"home,omitempty"`
	// Bandwidth is the default VM↔DC bandwidth (bytes/s); 0 inherits
	// the paper's platform default.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// BootTimeSec is the default boot delay; nil inherits the default.
	BootTimeSec *float64 `json:"bootTimeSec,omitempty"`
	// DCCostPerSec and TransferCostPerByte follow the paper's
	// datacenter cost model; nil inherits the defaults.
	DCCostPerSec        *float64 `json:"dcCostPerSec,omitempty"`
	TransferCostPerByte *float64 `json:"transferCostPerByte,omitempty"`
	// BillingQuantumSec rounds VM lifetimes up to this granularity
	// before billing; 0 means continuous per-second billing.
	BillingQuantumSec float64 `json:"billingQuantumSec,omitempty"`
}

// fieldErrf is a scalar-domain violation of one spec field, rooted at
// the "market" key every request body carries the spec under.
func fieldErrf(field, format string, args ...any) error {
	return reqerr.Invalid("market."+field, format, args...)
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the spec. Errors are *reqerr.Error values.
func (s *Spec) Validate() error {
	if len(s.Providers) == 0 {
		return fieldErrf("providers", "at least one provider is required")
	}
	if len(s.Providers) > maxProviders {
		return fieldErrf("providers", "at most %d providers, got %d", maxProviders, len(s.Providers))
	}
	seen := map[string]bool{}
	for i, p := range s.Providers {
		pf := fmt.Sprintf("providers[%d]", i)
		if p.Name == "" {
			return fieldErrf(pf+".name", "provider name is required")
		}
		if seen[p.Name] {
			return fieldErrf(pf+".name", "duplicate provider %q", p.Name)
		}
		seen[p.Name] = true
		if p.Bandwidth < 0 || math.IsNaN(p.Bandwidth) || math.IsInf(p.Bandwidth, 0) {
			return fieldErrf(pf+".bandwidth", "must be a finite non-negative number, got %v", p.Bandwidth)
		}
		if p.BootTimeSec != nil && !finiteNonNeg(*p.BootTimeSec) {
			return fieldErrf(pf+".bootTimeSec", "must be a finite non-negative number, got %v", *p.BootTimeSec)
		}
		if len(p.Categories) == 0 {
			return fieldErrf(pf+".categories", "at least one category is required")
		}
		names := map[string]bool{}
		for j, c := range p.Categories {
			cf := fmt.Sprintf("%s.categories[%d]", pf, j)
			if c.Name == "" {
				return fieldErrf(cf+".name", "category name is required")
			}
			if names[c.Name] {
				return fieldErrf(cf+".name", "duplicate category %q in provider %q", c.Name, p.Name)
			}
			names[c.Name] = true
			if c.Speed <= 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
				return fieldErrf(cf+".speed", "must be a finite positive number, got %v", c.Speed)
			}
			if !finiteNonNeg(c.CostPerSec) {
				return fieldErrf(cf+".costPerSec", "must be a finite non-negative number, got %v", c.CostPerSec)
			}
			if !finiteNonNeg(c.InitCost) {
				return fieldErrf(cf+".initCost", "must be a finite non-negative number, got %v", c.InitCost)
			}
			if c.Spot != nil {
				if c.Spot.Discount < 0 || c.Spot.Discount >= 1 || math.IsNaN(c.Spot.Discount) {
					return fieldErrf(cf+".spot.discount", "must be in [0, 1), got %v", c.Spot.Discount)
				}
				if !finiteNonNeg(c.Spot.RevocationsPerHour) {
					return fieldErrf(cf+".spot.revocationsPerHour", "must be a finite non-negative number, got %v", c.Spot.RevocationsPerHour)
				}
			}
		}
	}
	if s.Transfer != nil {
		if len(s.Transfer) != len(s.Providers) {
			return fieldErrf("transfer", "must be a %d×%d matrix over the providers, got %d rows", len(s.Providers), len(s.Providers), len(s.Transfer))
		}
		for i, row := range s.Transfer {
			if len(row) != len(s.Providers) {
				return fieldErrf(fmt.Sprintf("transfer[%d]", i), "want %d entries, got %d", len(s.Providers), len(row))
			}
			for j, l := range row {
				lf := fmt.Sprintf("transfer[%d][%d]", i, j)
				if !finiteNonNeg(l.CostPerGB) {
					return fieldErrf(lf+".costPerGB", "must be a finite non-negative number, got %v", l.CostPerGB)
				}
				if !finiteNonNeg(l.LatencySec) {
					return fieldErrf(lf+".latencySec", "must be a finite non-negative number, got %v", l.LatencySec)
				}
			}
		}
	}
	if s.Home != "" && s.providerIndex(s.Home) < 0 {
		return reqerr.Unusable("market.home", "unknown provider %q", s.Home)
	}
	if s.Bandwidth < 0 || math.IsNaN(s.Bandwidth) || math.IsInf(s.Bandwidth, 0) {
		return fieldErrf("bandwidth", "must be a finite non-negative number, got %v", s.Bandwidth)
	}
	if s.BootTimeSec != nil && !finiteNonNeg(*s.BootTimeSec) {
		return fieldErrf("bootTimeSec", "must be a finite non-negative number, got %v", *s.BootTimeSec)
	}
	if s.DCCostPerSec != nil && !finiteNonNeg(*s.DCCostPerSec) {
		return fieldErrf("dcCostPerSec", "must be a finite non-negative number, got %v", *s.DCCostPerSec)
	}
	if s.TransferCostPerByte != nil && !finiteNonNeg(*s.TransferCostPerByte) {
		return fieldErrf("transferCostPerByte", "must be a finite non-negative number, got %v", *s.TransferCostPerByte)
	}
	if !finiteNonNeg(s.BillingQuantumSec) {
		return fieldErrf("billingQuantumSec", "must be a finite non-negative number, got %v", s.BillingQuantumSec)
	}
	return nil
}

func (s *Spec) providerIndex(name string) int {
	for i, p := range s.Providers {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Compile flattens the market onto a platform.Platform: one platform
// category per (provider, category) pair, plus a discounted spot twin
// for every category with a spot section, the whole list stably
// sorted by per-second cost as the platform requires. The spot twin
// shares its sibling's speed and provider, so a revoked spot VM can
// resubmit to the on-demand sibling without changing the timeline
// shape (platform.OnDemandSibling finds it by that invariant).
//
// Category names stay bare in a single-provider market (keeping the
// degenerate path indistinguishable from a hand-built platform) and
// are prefixed "provider/" once there are several.
func (s *Spec) Compile() (*platform.Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	def := platform.Default()
	out := &platform.Platform{
		Bandwidth:           def.Bandwidth,
		BootTime:            def.BootTime,
		DCCostPerSec:        def.DCCostPerSec,
		TransferCostPerByte: def.TransferCostPerByte,
		BillingQuantum:      s.BillingQuantumSec,
	}
	if s.Bandwidth > 0 {
		out.Bandwidth = s.Bandwidth
	}
	if s.BootTimeSec != nil {
		out.BootTime = *s.BootTimeSec
	}
	if s.DCCostPerSec != nil {
		out.DCCostPerSec = *s.DCCostPerSec
	}
	if s.TransferCostPerByte != nil {
		out.TransferCostPerByte = *s.TransferCostPerByte
	}
	for _, p := range s.Providers {
		out.Providers = append(out.Providers, p.Name)
	}
	if s.Home != "" {
		out.DCProvider = s.providerIndex(s.Home)
	}

	multi := len(s.Providers) > 1
	for pi, p := range s.Providers {
		for _, c := range p.Categories {
			name := c.Name
			if multi {
				name = p.Name + "/" + c.Name
			}
			out.Categories = append(out.Categories, platform.Category{
				Name: name, Speed: c.Speed, CostPerSec: c.CostPerSec,
				InitCost: c.InitCost, Provider: pi,
			})
			if c.Spot != nil {
				out.Categories = append(out.Categories, platform.Category{
					Name: name + ".spot", Speed: c.Speed,
					CostPerSec: c.CostPerSec * (1 - c.Spot.Discount),
					InitCost:   c.InitCost, Provider: pi, Spot: true,
					RevocationRatePerHour: c.Spot.RevocationsPerHour,
				})
			}
		}
	}
	stableSortByCost(out.Categories)

	if s.Transfer != nil {
		n := len(s.Providers)
		anyCost, anyLat := false, false
		cost := make([][]float64, n)
		lat := make([][]float64, n)
		for i := range s.Transfer {
			cost[i] = make([]float64, n)
			lat[i] = make([]float64, n)
			for j, l := range s.Transfer[i] {
				cost[i][j] = l.CostPerGB / bytesPerGB
				lat[i][j] = l.LatencySec
				anyCost = anyCost || l.CostPerGB != 0
				anyLat = anyLat || l.LatencySec != 0
			}
		}
		// An all-zero matrix is dropped so it cannot make a degenerate
		// market hash or behave differently from its scalar twin.
		if anyCost {
			out.XferCostPerByte = cost
		}
		if anyLat {
			out.XferLatencySec = lat
		}
	}
	if bw, ok := providerOverrides(s, func(p ProviderSpec) (float64, bool) {
		return p.Bandwidth, p.Bandwidth > 0
	}, out.Bandwidth); ok {
		out.ProviderBandwidth = bw
	}
	if bt, ok := providerOverrides(s, func(p ProviderSpec) (float64, bool) {
		if p.BootTimeSec == nil {
			return 0, false
		}
		return *p.BootTimeSec, true
	}, out.BootTime); ok {
		out.ProviderBootTime = bt
	}

	if err := out.Validate(); err != nil {
		return nil, reqerr.Unusable("market", "compiled platform invalid: %v", err)
	}
	return out, nil
}

// providerOverrides builds a per-provider slice from the provider
// specs, filling unset entries with the market default; ok is false
// when no provider overrides the default, so the slice (and its
// effect on the canonical hash) is omitted entirely.
func providerOverrides(s *Spec, get func(ProviderSpec) (float64, bool), def float64) ([]float64, bool) {
	out := make([]float64, len(s.Providers))
	any := false
	for i, p := range s.Providers {
		out[i] = def
		if v, ok := get(p); ok {
			out[i] = v
			if v != def {
				any = true
			}
		}
	}
	return out, any
}

// stableSortByCost sorts categories by non-decreasing CostPerSec,
// preserving spec order among equal-cost categories (insertion sort:
// the lists are tiny and stability matters for determinism).
func stableSortByCost(cats []platform.Category) {
	for i := 1; i < len(cats); i++ {
		for j := i; j > 0 && cats[j].CostPerSec < cats[j-1].CostPerSec; j-- {
			cats[j], cats[j-1] = cats[j-1], cats[j]
		}
	}
}

// MergeRevocations folds the platform's spot revocation process into a
// user fault spec. The process is a per-category crash process whose
// rate is nonzero exactly on the spot categories, seeded seed; the
// executor samples revocation times from CRN streams split per VM
// provisioning index, exactly like crashes, so paired sweeps across
// discount or rate axes stay variance-reduced. Per-category crash rates
// add elementwise (the two exponential processes superpose), every
// other field keeps the user's value. Either side may be absent — a nil
// user, a platform without revocation hazard; the result is nil only
// when both are.
func MergeRevocations(user *fault.Spec, p *platform.Platform, seed uint64) *fault.Spec {
	rev := p.RevocationRates()
	if rev == nil {
		return user
	}
	if user == nil {
		return &fault.Spec{CrashRatePerHour: rev, Seed: seed}
	}
	merged := *user
	for i := range rev {
		switch {
		case len(user.CrashRatePerHour) == 1:
			rev[i] += user.CrashRatePerHour[0]
		case i < len(user.CrashRatePerHour):
			rev[i] += user.CrashRatePerHour[i]
		}
	}
	merged.CrashRatePerHour = rev
	return &merged
}
