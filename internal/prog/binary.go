package prog

import (
	"fmt"
	"sort"
)

// ipStride is the synthetic code-address distance between consecutive source
// lines: each line of a registered function owns a 16-byte IP range.
const ipStride = 16

// textBase is the base address of the synthetic text segment, placed well
// below the heap like a non-PIE Linux binary.
const textBase = 0x400000

// dataBase is the base address of the synthetic .data/.bss segment holding
// static data objects.
const dataBase = 0x600000

// Function describes one registered function of the synthetic binary.
type Function struct {
	// Name is the (demangled) function name.
	Name string
	// File is the source file that defines the function.
	File string
	// StartLine is the first source line of the body.
	StartLine int
	// Lines is the number of source lines the body spans.
	Lines int
	// LowIP is the first code address; the function occupies
	// [LowIP, LowIP+Lines*ipStride).
	LowIP uint64
}

// HighIP returns one past the last code address of the function.
func (f *Function) HighIP() uint64 { return f.LowIP + uint64(f.Lines)*ipStride }

// IPForLine returns the code address corresponding to an absolute source
// line within the function body.
func (f *Function) IPForLine(line int) (uint64, error) {
	off := line - f.StartLine
	if off < 0 || off >= f.Lines {
		return 0, fmt.Errorf("prog: line %d outside %s (%s:%d..%d)",
			line, f.Name, f.File, f.StartLine, f.StartLine+f.Lines-1)
	}
	return f.LowIP + uint64(off)*ipStride, nil
}

// StaticObject is a named static data symbol (the .data/.bss objects Extrae
// discovers by scanning the binary's symbol table).
type StaticObject struct {
	Name string
	Addr uint64
	Size uint64
}

// Location is a resolved code address.
type Location struct {
	Function string
	File     string
	Line     int
}

func (l Location) String() string {
	return fmt.Sprintf("%s (%s:%d)", l.Function, l.File, l.Line)
}

// Binary is the synthetic program image: functions with line tables and
// static data objects. It provides the IP→source and symbol→address
// resolution that the real tools obtain from DWARF and the ELF symtab.
type Binary struct {
	funcs   []*Function
	byName  map[string]*Function
	statics []StaticObject
	nextIP  uint64
	nextDat uint64
}

// NewBinary creates an empty synthetic binary image.
func NewBinary() *Binary {
	return &Binary{
		byName:  make(map[string]*Function),
		nextIP:  textBase,
		nextDat: dataBase,
	}
}

// AddFunction registers a function spanning nLines source lines starting at
// startLine of file, assigning it a fresh IP range.
func (b *Binary) AddFunction(name, file string, startLine, nLines int) (*Function, error) {
	if name == "" || file == "" {
		return nil, fmt.Errorf("prog: function needs a name and a file")
	}
	if nLines <= 0 || startLine <= 0 {
		return nil, fmt.Errorf("prog: function %s needs positive startLine and nLines", name)
	}
	if _, dup := b.byName[name]; dup {
		return nil, fmt.Errorf("prog: duplicate function %s", name)
	}
	f := &Function{Name: name, File: file, StartLine: startLine, Lines: nLines, LowIP: b.nextIP}
	b.nextIP += uint64(nLines) * ipStride
	b.funcs = append(b.funcs, f)
	b.byName[name] = f
	return f, nil
}

// Function returns the registered function with the given name.
func (b *Binary) Function(name string) (*Function, bool) {
	f, ok := b.byName[name]
	return f, ok
}

// AddStaticData reserves a static data symbol of the given size and returns
// it. Static objects are identified by name, as in the paper.
func (b *Binary) AddStaticData(name string, size uint64) (StaticObject, error) {
	if name == "" || size == 0 {
		return StaticObject{}, fmt.Errorf("prog: static object needs a name and a size")
	}
	obj := StaticObject{Name: name, Addr: b.nextDat, Size: size}
	b.nextDat += roundSize(size)
	b.statics = append(b.statics, obj)
	return obj, nil
}

// StaticObjects returns all registered static data objects.
func (b *Binary) StaticObjects() []StaticObject { return b.statics }

// Lookup resolves a code address to its function, file and line.
func (b *Binary) Lookup(ip uint64) (Location, bool) {
	// Functions are allocated in ascending IP order; binary-search the start.
	i := sort.Search(len(b.funcs), func(i int) bool { return b.funcs[i].HighIP() > ip })
	if i == len(b.funcs) || ip < b.funcs[i].LowIP {
		return Location{}, false
	}
	f := b.funcs[i]
	line := f.StartLine + int((ip-f.LowIP)/ipStride)
	return Location{Function: f.Name, File: f.File, Line: line}, true
}
