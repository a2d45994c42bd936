@ThreadSafe class VoidArray {
  void[] f() {
    return;
  }
}
