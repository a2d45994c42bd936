@ThreadSafe class VoidField {
  private void x;
}
