@ThreadSafe class FinalBadType {
  void f() {
    final int[ x = 1;
  }
}
