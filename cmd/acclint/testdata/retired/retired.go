// Package retired carries an ignore naming codecsym, a check the suite no
// longer has: the annotation must be reported, not silently accepted.
package retired

// Sum adds two ints.
func Sum(a, b int) int {
	//acclint:ignore codecsym the check this names was retired
	return a + b
}
