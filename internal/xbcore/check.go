package xbcore

import (
	"fmt"

	"xbc/internal/isa"
)

// This file implements the cycle-level invariant checker behind
// Config.Check. After every committed XB it verifies the cheap local
// invariants (block quota, pointer offsets, the touched entry's bank
// masks), and every sweepEvery commits — plus once at end of stream — it
// sweeps the whole cache and XBTB:
//
//   - no XB exceeds the 16-uop quota (Config.Quota);
//   - a variant's resident chunks sit in mutually distinct banks with
//     consistent order/content (bank-mask consistency, section 3.4);
//   - every valid XBTB successor pointer resolves into the live cache: the
//     ending address has an entry, the variant exists, and the OFFSET does
//     not reach past the variant's stored length;
//   - head extension preserves reverse-order storage: a case-2 insert must
//     leave the old block as an exact reverse-prefix of the extended one
//     (checked at insert time in Cache.Insert, surfaced here).
//
// The first violation ends the run: the session stops stepping and its
// Finish returns the violation.
type checker struct {
	cfg        Config
	cache      *Cache
	xbtb       *XBTB
	commits    uint64
	sweepEvery uint64
}

func newChecker(cfg Config, cache *Cache, xbtb *XBTB) *checker {
	return &checker{cfg: cfg, cache: cache, xbtb: xbtb, sweepEvery: 1024}
}

// afterCommit runs the per-XB checks and the periodic full sweep.
func (k *checker) afterCommit(cur *dynXB, e *Entry) error {
	k.commits++
	if err := k.checkXB(cur); err != nil {
		return err
	}
	if e != nil {
		if err := k.checkEntry(e); err != nil {
			return err
		}
	}
	if err := k.cache.CheckErr(); err != nil {
		return err
	}
	if err := k.checkVariant(cur); err != nil {
		return err
	}
	if k.commits%k.sweepEvery == 0 {
		return k.sweep()
	}
	return nil
}

// checkXB validates the committed dynamic block itself.
func (k *checker) checkXB(cur *dynXB) error {
	if cur.uops < 1 || cur.uops > k.cfg.Quota {
		return fmt.Errorf("xbcore: check: XB ending %#x has %d uops (quota %d)", cur.endIP, cur.uops, k.cfg.Quota)
	}
	if len(cur.rseq) != cur.uops {
		return fmt.Errorf("xbcore: check: XB ending %#x has rseq length %d for %d uops", cur.endIP, len(cur.rseq), cur.uops)
	}
	return nil
}

// checkVariant verifies bank-mask consistency for the variant holding the
// just-committed block: its resident chunks must occupy mutually distinct
// banks with matching order and content.
func (k *checker) checkVariant(cur *dynXB) error {
	c := k.cache
	ei := c.entryOf(cur.endIP)
	if ei < 0 {
		return nil // block not resident (e.g. build without insert success)
	}
	set := c.setOf(cur.endIP)
	for vi := c.entries[ei].head; vi >= 0; vi = c.variants[vi].next {
		rlen := int(c.variants[vi].rlen)
		if rlen > k.cfg.Quota {
			return fmt.Errorf("xbcore: check: variant of %#x stores %d uops (quota %d)", cur.endIP, rlen, k.cfg.Quota)
		}
		refs := c.vrefs(vi)
		banks := uint(0)
		for o := 0; o < c.ordersOf(rlen) && o < len(refs); o++ {
			ref := refs[o]
			if ref.bank < 0 {
				continue
			}
			if int(ref.bank) >= k.cfg.Banks || int(ref.way) >= k.cfg.Ways {
				return fmt.Errorf("xbcore: check: variant of %#x references bank %d way %d", cur.endIP, ref.bank, ref.way)
			}
			if !c.lineMatches(c.lineIndex(set, int(ref.bank), int(ref.way)), cur.endIP, o, c.chunk(vi, o)) {
				continue // stale reference: legal, repaired lazily by set search
			}
			if banks&(1<<uint(ref.bank)) != 0 {
				return fmt.Errorf("xbcore: check: variant of %#x has two resident chunks in bank %d (mask %04b)", cur.endIP, ref.bank, banks)
			}
			banks |= 1 << uint(ref.bank)
		}
	}
	return nil
}

// checkEntry validates the successor pointers of one XBTB entry.
func (k *checker) checkEntry(e *Entry) error {
	if err := k.checkPtr(e.xbIP, "taken", e.Taken, 1); err != nil {
		return err
	}
	if err := k.checkPtr(e.xbIP, "fall", e.Fall, 1); err != nil {
		return err
	}
	// PromotedTo's offset is the tail length past a promoted branch and may
	// legally be zero when the branch ends the combined block.
	return k.checkPtr(e.xbIP, "promoted-to", e.PromotedTo, 0)
}

// checkPtr verifies one XBTB pointer resolves into the live cache.
func (k *checker) checkPtr(from isa.Addr, kind string, p Ptr, minOffset int) error {
	if !p.Valid {
		return nil
	}
	if int(p.Offset) < minOffset || int(p.Offset) > k.cfg.Quota {
		return fmt.Errorf("xbcore: check: %s pointer of %#x has offset %d (quota %d)", kind, from, p.Offset, k.cfg.Quota)
	}
	ei := k.cache.entryOf(p.EndIP)
	if ei < 0 {
		return fmt.Errorf("xbcore: check: %s pointer of %#x names %#x, which has no cache entry", kind, from, p.EndIP)
	}
	vi := k.cache.variantByID(ei, p.Variant)
	if vi < 0 {
		return fmt.Errorf("xbcore: check: %s pointer of %#x names dead variant %d of %#x", kind, from, p.Variant, p.EndIP)
	}
	if rlen := int(k.cache.variants[vi].rlen); int(p.Offset) > rlen {
		return fmt.Errorf("xbcore: check: %s pointer of %#x reaches %d uops into variant %d of %#x, which stores %d",
			kind, from, p.Offset, p.Variant, p.EndIP, rlen)
	}
	return nil
}

// sweep runs the full-structure checks.
func (k *checker) sweep() error {
	if err := k.cache.CheckInvariants(); err != nil {
		return err
	}
	for i := range k.xbtb.entries {
		e := &k.xbtb.entries[i]
		if !e.valid {
			continue
		}
		if err := k.checkEntry(e); err != nil {
			return err
		}
	}
	return nil
}
