class VoidArray {
  void[] f() {
    return;
  }
}
