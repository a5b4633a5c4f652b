package scanstore

// CheckIndexAgainstReference lets the external tests check the index of a
// corpus the scanner built.
var CheckIndexAgainstReference = checkIndexAgainstReference
