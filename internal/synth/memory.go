package synth

// Synthetic data memory. Loads return deterministic values derived from the
// address and the region's data personality (byte arrays are narrow, word
// arrays mixed, pointer arrays wide); stores are remembered in a bounded
// overlay so subsequent loads of the same address observe them, which keeps
// the value stream self-consistent without materializing gigabytes.

// overlayCap bounds the store overlay. When full it is generationally
// cleared — a deterministic, documented approximation: very old stores fade
// back to the synthetic background values.
const overlayCap = 1 << 16

// regionBases places the four data regions far apart in the address space.
// The low byte of each base is randomized at stream construction so address
// arithmetic exercises real carry propagation (Figure 10's example has a
// base of FFFC4A02, not a page-aligned value).
var regionBases = [numRegions]uint32{0x10000000, 0x40000000, 0x80000000, 0xBFFF0000}

// hash32 is a fast deterministic 32-bit mixer (murmur3 finalizer).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

type memory struct {
	overlay    map[uint32]uint32
	bases      [numRegions]uint32
	mask       [numRegions]uint32 // working-set mask per region
	narrowMill uint32             // NarrowDataFrac scaled to parts-per-1024
}

// reset prepares m for a fresh run of prog, reusing the overlay map.
func (m *memory) reset(prog *program, lowByteSeed uint32) {
	if m.overlay == nil {
		m.overlay = make(map[uint32]uint32)
	} else {
		clear(m.overlay)
	}
	m.narrowMill = uint32(prog.params.NarrowDataFrac * 1024)
	for i := range m.bases {
		m.bases[i] = regionBases[i] | (hash32(lowByteSeed+uint32(i)) & 0xFF)
		m.mask[i] = (1 << prog.regionShift[i]) - 1
	}
}

func sizeMask(size uint8) uint32 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	default:
		return 0xFFFFFFFF
	}
}

// load returns the value at addr for a load tagged with the given region
// personality and access size.
func (m *memory) load(addr uint32, region int, size uint8) uint32 {
	if v, ok := m.overlay[addr]; ok {
		return v & sizeMask(size)
	}
	h := hash32(addr)
	var v uint32
	switch region {
	case 0: // byte array: always narrow data
		v = h & 0x7F
	case 2: // pointer array: wide pointers into the region's working set
		v = m.bases[2] + (h & m.mask[2])
	default: // word array / stack: mixed widths per the profile
		if h&1023 < m.narrowMill {
			v = (h >> 10) & 0xFF
		} else {
			v = 0x00010000 | (h & 0x00FFFFFF)
		}
	}
	return v & sizeMask(size)
}

// store records the value; the overlay is cleared generationally when full.
func (m *memory) store(addr, val uint32, size uint8) {
	if len(m.overlay) >= overlayCap {
		clear(m.overlay)
	}
	m.overlay[addr] = val & sizeMask(size)
}
