package fabric

// SlabLens reports each engine slab's placed links and the links it was
// sized for.
func SlabLens(f *Fabric) (placed, sized []int) {
	for _, s := range f.slabs {
		placed = append(placed, len(s.links))
		sized = append(sized, cap(s.links))
	}
	return placed, sized
}
