package platform

// Multi-cloud market helpers. The provider dimension added by
// internal/market is deliberately optional: every accessor below falls
// back to the scalar single-provider field when the refinement is
// absent, so a platform with none of the market fields set behaves —
// bit for bit — like the paper's model. The degenerate-equivalence
// property test in internal/market holds the whole stack to that.

// NumProviders returns the number of providers; the single-provider
// model counts as one.
func (p *Platform) NumProviders() int {
	if len(p.Providers) == 0 {
		return 1
	}
	return len(p.Providers)
}

// CatBandwidth returns the VM↔DC bandwidth of category k: its
// provider's override when one is set, the scalar Bandwidth otherwise.
func (p *Platform) CatBandwidth(k int) float64 {
	if p.ProviderBandwidth == nil {
		return p.Bandwidth
	}
	return p.ProviderBandwidth[p.Categories[k].Provider]
}

// CatBootTime returns the boot delay of category k, honouring the
// per-provider override.
func (p *Platform) CatBootTime(k int) float64 {
	if p.ProviderBootTime == nil {
		return p.BootTime
	}
	return p.ProviderBootTime[p.Categories[k].Provider]
}

// XferCost returns the per-byte surcharge for traffic between a VM of
// category k and the datacenter (on provider DCProvider). Zero in the
// single-provider model and whenever no matrix is set.
func (p *Platform) XferCost(k int) float64 {
	if p.XferCostPerByte == nil {
		return 0
	}
	return p.XferCostPerByte[p.Categories[k].Provider][p.DCProvider]
}

// XferLat returns the fixed latency added to every transfer between a
// VM of category k and the datacenter.
func (p *Platform) XferLat(k int) float64 {
	if p.XferLatencySec == nil {
		return 0
	}
	return p.XferLatencySec[p.Categories[k].Provider][p.DCProvider]
}

// MaxXferCostPerByte returns the largest per-byte surcharge any
// category pays to reach the datacenter — what a conservative budget
// reserve charges per transferred byte. Zero without a transfer
// matrix.
func (p *Platform) MaxXferCostPerByte() float64 {
	max := 0.0
	for k := range p.Categories {
		if c := p.XferCost(k); c > max {
			max = c
		}
	}
	return max
}

// HasSpot reports whether any category is preemptible.
func (p *Platform) HasSpot() bool {
	for _, c := range p.Categories {
		if c.Spot {
			return true
		}
	}
	return false
}

// MaxRevocationRate returns the largest per-hour revocation hazard
// over all categories (zero without spot categories).
func (p *Platform) MaxRevocationRate() float64 {
	max := 0.0
	for _, c := range p.Categories {
		if c.RevocationRatePerHour > max {
			max = c.RevocationRatePerHour
		}
	}
	return max
}

// RevocationRates returns the per-category revocation hazards (per
// hour), or nil when every category is on-demand. The slice lines up
// with Categories, so it feeds fault.Spec.CrashRatePerHour directly —
// the revocation process reuses the fault injector's CRN trace
// splitting and paired sweeps stay variance-reduced.
func (p *Platform) RevocationRates() []float64 {
	if p.MaxRevocationRate() == 0 {
		return nil // asked once per replayed cell: nothing to allocate
	}
	rates := make([]float64, len(p.Categories))
	for i, c := range p.Categories {
		rates[i] = c.RevocationRatePerHour
	}
	return rates
}

// MarketDistinct reports whether any market feature is set that makes
// the platform behave differently from the paper's single-catalog
// model. Naming a single provider with zero matrices is NOT distinct:
// such a market compiles to a platform that plans, simulates and
// hashes identically to its scalar twin.
func (p *Platform) MarketDistinct() bool {
	if len(p.Providers) > 1 || p.DCProvider != 0 || p.HasSpot() {
		return true
	}
	if p.ProviderBandwidth != nil || p.ProviderBootTime != nil {
		return true
	}
	for _, c := range p.Categories {
		if c.Provider != 0 || c.RevocationRatePerHour > 0 {
			return true
		}
	}
	for _, m := range [][][]float64{p.XferCostPerByte, p.XferLatencySec} {
		for _, row := range m {
			for _, v := range row {
				if v != 0 {
					return true
				}
			}
		}
	}
	return false
}

// OnDemandSibling returns the on-demand category a revoked spot VM of
// category k resubmits to: the same-provider non-spot category with
// the same speed when one exists (internal/market always compiles
// one), otherwise the fastest same-provider non-spot category, and as
// a last resort the fastest non-spot category anywhere. For an
// on-demand k it returns k itself.
func (p *Platform) OnDemandSibling(k int) int {
	if !p.Categories[k].Spot {
		return k
	}
	prov := p.Categories[k].Provider
	sameSpeed, sameProv, anywhere := -1, -1, -1
	for i, c := range p.Categories {
		if c.Spot {
			continue
		}
		if anywhere < 0 || c.Speed > p.Categories[anywhere].Speed {
			anywhere = i
		}
		if c.Provider != prov {
			continue
		}
		if sameProv < 0 || c.Speed > p.Categories[sameProv].Speed {
			sameProv = i
		}
		if c.Speed == p.Categories[k].Speed && sameSpeed < 0 {
			sameSpeed = i
		}
	}
	switch {
	case sameSpeed >= 0:
		return sameSpeed
	case sameProv >= 0:
		return sameProv
	case anywhere >= 0:
		return anywhere
	}
	return k
}

// WithSpotTwins returns a copy of the platform where every on-demand
// category gains a preemptible twin ("<name>.spot", same speed, same
// provider, same setup fee) priced at CostPerSec·(1−discount) with the
// given revocation hazard (per VM-hour). Existing spot categories are
// dropped first, and the result is re-sorted by cost to keep the
// platform invariant, so calling it repeatedly with different market
// conditions is idempotent — exactly what a discount×rate sweep needs.
func (p *Platform) WithSpotTwins(discount, rate float64) *Platform {
	base := p.OnDemandOnly()
	out := *base
	out.Categories = append([]Category(nil), base.Categories...)
	for _, c := range base.Categories {
		twin := c
		twin.Name = c.Name + ".spot"
		twin.CostPerSec = c.CostPerSec * (1 - discount)
		twin.Spot = true
		twin.RevocationRatePerHour = rate
		out.Categories = append(out.Categories, twin)
	}
	// Insertion sort by cost: stable, and deterministic for the equal-
	// cost case (discount 0 keeps each twin after its base).
	cats := out.Categories
	for i := 1; i < len(cats); i++ {
		for j := i; j > 0 && cats[j].CostPerSec < cats[j-1].CostPerSec; j-- {
			cats[j], cats[j-1] = cats[j-1], cats[j]
		}
	}
	return &out
}

// OnDemandOnly returns a copy of the platform with every spot category
// removed — the baseline a spot market is compared against. Platforms
// without spot categories are returned as-is.
func (p *Platform) OnDemandOnly() *Platform {
	if !p.HasSpot() {
		return p
	}
	out := *p
	out.Categories = nil
	for _, c := range p.Categories {
		if !c.Spot {
			out.Categories = append(out.Categories, c)
		}
	}
	return &out
}
