package archive

import (
	"strconv"
	"strings"
	"unsafe"

	"permadead/internal/urlutil"
)

// The §5.2 typo probe: how many distinct archived URLs under a
// registrable domain sit at edit distance exactly 1 from a
// never-archived link. URLs compare without their scheme, as
// host+path?query. The answer is exact with no enumeration cap:
// explicit rows are compared one distinct path at a time with the
// linear k=1 check, and each bulk region answers for its members in
// O(1) candidates instead of listing them (BulkRegion.neighbors).

// A bulk member path is DirPrefix + bulkItem + the index zero-padded
// to bulkMinDig digits + a bulkTailLen tail ("-" + 4 hex + ".html").
const (
	bulkItem    = "item-"
	bulkTailLen = len("-0000.html")
	bulkMinDig  = 6
	hexDigits   = "0123456789abcdef"
)

// appendPath appends the i-th member path, the allocation-free form of
// fmt.Sprintf("%sitem-%06d-%04x.html", DirPrefix, i, v&0xffff).
func (r BulkRegion) appendPath(dst []byte, i int) []byte {
	dst = append(dst, r.DirPrefix...)
	dst = append(dst, bulkItem...)
	var num [20]byte
	digits := strconv.AppendUint(num[:0], uint64(i), 10)
	for k := len(digits); k < bulkMinDig; k++ {
		dst = append(dst, '0')
	}
	dst = append(dst, digits...)
	hex := r.hexAt(i)
	dst = append(append(dst, '-'), hex[:]...)
	return append(dst, ".html"...)
}

// appendMember appends host + the i-th member path: the member's URL
// without its scheme, the form the typo probe compares.
func (r BulkRegion) appendMember(dst []byte, i int) []byte {
	return r.appendPath(append(dst, r.Host...), i)
}

// parseIndex reads s as a decimal member index. ok is false when s is
// empty, holds a non-digit, or is too long to be an index (no region
// holds 10^18 members).
func parseIndex[T string | []byte](s T) (i int, ok bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	for k := 0; k < len(s); k++ {
		if s[k] < '0' || s[k] > '9' {
			return 0, false
		}
		i = i*10 + int(s[k]-'0')
	}
	return i, true
}

// indexAt reads target[off:off+n] as a member index (see parseIndex).
func indexAt(target string, off, n int) (int, bool) {
	if off < 0 || off+n > len(target) {
		return 0, false
	}
	return parseIndex(target[off : off+n])
}

// hexAt returns the i-th member's 4-hex-digit suffix.
func (r BulkRegion) hexAt(i int) [4]byte {
	v := mix64(r.Seed + uint64(i)*0x9e3779b97f4a7c15)
	return [4]byte{hexDigits[v>>12&0xf], hexDigits[v>>8&0xf], hexDigits[v>>4&0xf], hexDigits[v&0xf]}
}

// neighbors appends to dst the indexes of the region's members whose
// host+path is at edit distance exactly 1 from target, without listing
// the region; an index may appear more than once. buf is scratch
// space, returned for reuse.
//
// One edit leaves the member's zero-padded index readable from target.
// With P = host+DirPrefix+"item-" and m a member of D digits:
//   - an edit before the digits keeps everything from them on, so they
//     sit at len(P)+len(target)-len(m) in target;
//   - an edit after the digits keeps everything up to them, so they sit
//     at len(P);
//   - an edit inside the digits keeps P and the 10-byte tail, so target
//     is P + s + tail with s one edit from the digits: about 130
//     candidates (a digit replaced, added or dropped).
//
// Every candidate index below Count is formatted and checked with the
// linear k=1 test, so the candidate rules need only be complete, not
// precise.
func (r BulkRegion) neighbors(target string, dst []int, buf []byte) ([]int, []byte) {
	if r.Count <= 0 {
		return dst, buf
	}
	try := func(i int) {
		if i < 0 || i >= r.Count {
			return
		}
		buf = r.appendMember(buf[:0], i)
		// The view of buf lives only for this comparison.
		m := unsafe.String(unsafe.SliceData(buf), len(buf))
		if m != target && urlutil.EditDistanceAtMost(m, target, 1) {
			dst = append(dst, i)
		}
	}

	p := len(r.Host) + len(r.DirPrefix) + len(bulkItem)
	maxDig := bulkMinDig // digits of the largest index, Count-1
	for v := (r.Count - 1) / 1_000_000; v > 0; v /= 10 {
		maxDig++
	}
	n := len(target)
	for d := bulkMinDig; d <= maxDig; d++ {
		m := p + d + bulkTailLen
		if m < n-1 || m > n+1 {
			continue
		}
		if i, ok := indexAt(target, p+n-m, d); ok {
			try(i)
		}
		if i, ok := indexAt(target, p, d); ok {
			try(i)
		}
	}

	if n < p+bulkTailLen || !strings.HasPrefix(target, r.Host) ||
		!strings.HasPrefix(target[len(r.Host):], r.DirPrefix) ||
		!strings.HasPrefix(target[len(r.Host)+len(r.DirPrefix):], bulkItem) {
		return dst, buf
	}
	s, tail := target[p:n-bulkTailLen], target[n-bulkTailLen:]
	if len(s) < bulkMinDig-1 || len(s) > maxDig+1 {
		return dst, buf
	}
	// The tail is kept verbatim, so a candidate whose hex suffix differs
	// is rejected before it is formatted.
	tryTail := func(c []byte) {
		if i, ok := parseIndex(c); ok && i < r.Count {
			if hex := r.hexAt(i); string(hex[:]) == tail[1:5] {
				try(i)
			}
		}
	}
	var cand [20]byte
	for j := 0; j <= len(s); j++ {
		if j < len(s) {
			tryTail(append(append(cand[:0], s[:j]...), s[j+1:]...)) // drop s[j]
		}
		for digit := byte('0'); digit <= '9'; digit++ {
			if j < len(s) && s[j] != digit {
				tryTail(append(append(append(cand[:0], s[:j]...), digit), s[j+1:]...)) // replace s[j]
			}
			tryTail(append(append(append(cand[:0], s[:j]...), digit), s[j:]...)) // add before s[j]
		}
	}
	return dst, buf
}

// NeighborCounter accumulates the typo probe's answer for one target
// (a URL without its scheme): the distinct archived URLs at edit
// distance exactly 1, fed one explicit row or bulk region at a time.
// Repeat captures, and explicit rows that equal a bulk member, count
// once. Every archive read path (mutable scan, frozen index, paged
// Store) feeds the same counter, so they share one definition of the
// answer.
type NeighborCounter struct {
	target string
	found  []string
	idx    []int
	buf    []byte
}

// NewNeighborCounter returns an empty counter for target.
func NewNeighborCounter(target string) *NeighborCounter {
	return &NeighborCounter{target: target}
}

// AddPath offers the explicit row host+pathQuery.
func (c *NeighborCounter) AddPath(host, pathQuery string) {
	if d := len(host) + len(pathQuery) - len(c.target); d > 1 || d < -1 {
		return
	}
	c.buf = append(append(c.buf[:0], host...), pathQuery...)
	// The view of buf lives only for this comparison.
	u := unsafe.String(unsafe.SliceData(c.buf), len(c.buf))
	if u != c.target && urlutil.EditDistanceAtMost(u, c.target, 1) {
		c.record()
	}
}

// AddRegion offers every member of a bulk region (r.Host set).
func (c *NeighborCounter) AddRegion(r BulkRegion) {
	c.idx, c.buf = r.neighbors(c.target, c.idx[:0], c.buf)
	for _, i := range c.idx {
		c.buf = r.appendMember(c.buf[:0], i)
		c.record()
	}
}

// Count returns the number of distinct URLs at distance exactly 1.
func (c *NeighborCounter) Count() int { return len(c.found) }

// record adds c.buf (known to be at distance 1) unless already found.
func (c *NeighborCounter) record() {
	u := unsafe.String(unsafe.SliceData(c.buf), len(c.buf))
	for _, f := range c.found {
		if f == u {
			return
		}
	}
	c.found = append(c.found, string(c.buf))
}

// DomainNeighbors is the §5.2 typo probe: the number of distinct
// archived URLs (any status) under the registrable domain whose
// host+path?query is at edit distance exactly 1 from target, a URL
// without its scheme. It counts the same set DomainURLs enumerates
// with no limit, but touches only each host's distinct explicit paths
// and O(1) candidates per bulk region. The mutable scan is the
// reference; frozen archives walk the freeze-time sorted views, and a
// Store answers from its own layout.
func (a *Archive) DomainNeighbors(domain, target string) int {
	domain = strings.ToLower(domain)
	if a.store != nil {
		return a.store.DomainNeighbors(domain, target)
	}
	c := NewNeighborCounter(target)
	if a.frozen.Load() {
		for _, h := range a.domainHostsFrozen(domain) {
			hi, fz := a.byHost[h], a.index[h]
			for k, idx := range fz.sortedAll {
				pq := hi.entries[idx].pathQuery
				if k > 0 && pq == hi.entries[fz.sortedAll[k-1]].pathQuery {
					continue // a repeat capture of the same URL
				}
				c.AddPath(h, pq)
			}
			for _, r := range hi.bulk {
				c.AddRegion(r)
			}
		}
		return c.Count()
	}
	defer a.rlock()()
	for h, hi := range a.byHost {
		if urlutil.DomainOfHost(h) != domain {
			continue
		}
		for _, e := range hi.entries {
			c.AddPath(h, e.pathQuery)
		}
		for _, r := range hi.bulk {
			c.AddRegion(r)
		}
	}
	return c.Count()
}
