// Package cpu reports which x86 vector extensions this CPU runs and the
// operating system supports, for the packages whose kernels pick an
// assembly body at run time: internal/nn's lane kernels need AVX and
// internal/quant's dense16 and lookupShift AVX2. Each asks once, when it
// initialises. Off amd64 the package declares nothing, and those packages
// run their Go kernels.
package cpu
