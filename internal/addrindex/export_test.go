package addrindex

// OnHugeList reports whether Insert puts [base, base+size) on the huge
// side list rather than registering it per line.
func OnHugeList(base, size uint64) bool {
	first, last := pageRange(base, size)
	return isHuge(first, last, size)
}
