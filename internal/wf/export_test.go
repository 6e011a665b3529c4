package wf

// TakesFastPath reports whether Decode's one-pass path accepts doc.
func TakesFastPath(doc []byte) bool {
	_, ok := decodeFast(string(doc))
	return ok
}
