// Package clean is a package no checker has anything to say about.
package clean

// Sum adds two ints.
func Sum(a, b int) int { return a + b }
